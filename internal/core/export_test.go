package core

import "acr/internal/consensus"

// SetTestStageWidth exposes the stage-width seam to the external test
// package, which (unlike package core's own tests) can import
// internal/chaos without an import cycle. 0 restores the width function.
func SetTestStageWidth(w int) { testStageWidth.Store(int32(w)) }

// runRound runs one round body over scope under the given epoch with every
// replica in scope handed over at once: the body without the consensus in
// front of it, for tests that drive an idle machine.
func (c *Controller) runRound(epoch uint64, scope consensus.Scope, exchange func(n, t int) error, captureDrained func()) (string, int, error) {
	b := c.openRound(epoch, scope, exchange, captureDrained)
	var hs []consensus.Handoff
	for rep := 0; rep < 2; rep++ {
		if scope[rep] {
			hs = append(hs, consensus.Handoff{Replica: rep})
		}
	}
	b.take(hs...)
	return b.finish()
}

// applyPendingSDC applies every scheduled injection, whatever its replica.
func (c *Controller) applyPendingSDC() { c.applyPendingSDCTo([2]bool{true, true}) }
