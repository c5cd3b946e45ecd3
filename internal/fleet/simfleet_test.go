package fleet

import "testing"

// TestSimFleetDeterministic: same spec, same epochs and failures, twice.
func TestSimFleetDeterministic(t *testing.T) {
	spec := DefaultSimFleetSpec(4)
	spec.Horizon = 100
	a, b := RunSimFleet(spec), RunSimFleet(spec)
	if a != b {
		t.Fatalf("sim fleet nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.CommittedEpochs == 0 {
		t.Fatal("no epochs committed")
	}
	if a.SimCores != 4*8192 {
		t.Fatalf("sim cores = %d, want %d", a.SimCores, 4*8192)
	}
}

// TestSimFleetScalesEpochs: 4x the jobs at the same horizon must commit
// close to 4x the epochs (failures perturb the count slightly).
func TestSimFleetScalesEpochs(t *testing.T) {
	small := DefaultSimFleetSpec(2)
	small.Horizon = 100
	big := DefaultSimFleetSpec(8)
	big.Horizon = 100
	a, b := RunSimFleet(small), RunSimFleet(big)
	lo, hi := 3.5*float64(a.CommittedEpochs), 4.5*float64(a.CommittedEpochs)
	if got := float64(b.CommittedEpochs); got < lo || got > hi {
		t.Fatalf("8-job fleet committed %d epochs, 2-job %d; want ~4x", b.CommittedEpochs, a.CommittedEpochs)
	}
}

// TestSimFleetCongestionEngages: a fleet whose aggregate flush demand
// exceeds the disk budget must stretch checkpoint costs (congestion > 1)
// and commit fewer epochs than an unconstrained run.
func TestSimFleetCongestionEngages(t *testing.T) {
	free := DefaultSimFleetSpec(8)
	free.Horizon = 100
	free.DiskBytesPerSec = 0 // unlimited
	tight := free
	tight.DiskBytesPerSec = float64(free.BytesPerCkpt) * 2 // ~1/4 of demand

	a, b := RunSimFleet(free), RunSimFleet(tight)
	if b.MaxCongestion <= 1 {
		t.Fatalf("max congestion = %v, want > 1 under a starved budget", b.MaxCongestion)
	}
	if b.CommittedEpochs >= a.CommittedEpochs {
		t.Fatalf("congested fleet committed %d epochs, unconstrained %d; congestion had no effect",
			b.CommittedEpochs, a.CommittedEpochs)
	}
}
