package netsim

// This file quantifies the §4.2 semi-blocking (asynchronous) checkpoint,
// the paper's future-work optimization [27]: overlap the checkpoint
// transmission with application execution so only the local capture blocks
// the application. (The §4.2 checksum rule, gamma < beta/4, is checked
// against the same cost model in tradeoff_test.go.)

// SemiBlockingCheckpoint returns the checkpoint cost when the transfer and
// comparison are overlapped with application execution: the application
// blocks only for the local capture, while the exchange drains in the
// background (its duration still matters for when the next checkpoint may
// start, reported as Background).
type SemiBlockingCost struct {
	// Blocking is the time the application is actually paused (local
	// serialization only).
	Blocking float64
	// Background is the off-critical-path time until the comparison
	// verdict is known.
	Background float64
}

// SemiBlocking evaluates the overlapped variant of a checkpoint round.
func (m *Model) SemiBlocking(bytesPerNode float64, method Method, scattered bool) SemiBlockingCost {
	c := m.Checkpoint(bytesPerNode, method, scattered)
	return SemiBlockingCost{
		Blocking:   c.Local,
		Background: c.Transfer + c.Compare,
	}
}
