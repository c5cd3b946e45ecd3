package netsim

import (
	"testing"

	"acr/internal/topology"
)

func TestChecksumRuleMatchesAdvantage(t *testing.T) {
	// For a large checkpoint the sign of the gamma < beta/4 rule must
	// agree with the actual time difference, across mappings (which vary
	// beta via the bottleneck load).
	const bytes = 64e6
	for _, tc := range []struct {
		shape  [3]int
		scheme topology.Scheme
	}{
		{[3]int{8, 8, 32}, topology.DefaultScheme},   // load 16: big beta
		{[3]int{32, 32, 32}, topology.DefaultScheme}, // load 16
		{[3]int{32, 32, 32}, topology.ColumnScheme},  // load 1: tiny beta
	} {
		m := model(t, tc.shape, tc.scheme, 0)
		rule := m.ChecksumBeneficial()
		adv := m.ChecksumAdvantage(bytes, false)
		if rule != (adv > 0) {
			t.Errorf("%v/%v: rule says beneficial=%v but advantage=%.4fs",
				tc.shape, tc.scheme, rule, adv)
		}
	}
}

func TestChecksumRuleDirections(t *testing.T) {
	// Default mapping at Z=32 (load 16): beta large, checksum wins.
	def := model(t, [3]int{8, 8, 32}, topology.DefaultScheme, 0)
	if !def.ChecksumBeneficial() {
		t.Error("checksum should be beneficial under the congested default mapping")
	}
	// Column mapping (load 1): beta small, full exchange wins.
	col := model(t, [3]int{8, 8, 32}, topology.ColumnScheme, 0)
	if col.ChecksumBeneficial() {
		t.Error("checksum should lose to the column mapping")
	}
	if def.EffectiveBeta() <= col.EffectiveBeta() {
		t.Error("default mapping must have the larger effective beta")
	}
	if def.EffectiveGamma() != col.EffectiveGamma() {
		t.Error("gamma is a node property, independent of mapping")
	}
}

func TestSemiBlockingOnlyLocalBlocks(t *testing.T) {
	m := model(t, [3]int{8, 8, 32}, topology.DefaultScheme, 0)
	const bytes = 16e6
	full := m.Checkpoint(bytes, FullCheckpoint, false)
	semi := m.SemiBlocking(bytes, FullCheckpoint, false)
	if semi.Blocking != full.Local {
		t.Fatalf("semi-blocking pause %v, want local capture %v", semi.Blocking, full.Local)
	}
	if semi.Background != full.Transfer+full.Compare {
		t.Fatal("background must carry transfer + compare")
	}
	if semi.Blocking+semi.Background != full.Total() {
		t.Fatal("no work disappears, it just moves off the critical path")
	}
}

func TestSemiBlockingSpeedupRange(t *testing.T) {
	m := model(t, [3]int{8, 8, 32}, topology.DefaultScheme, 0)
	s := m.SemiBlockingSpeedup(16e6, FullCheckpoint, false)
	if s <= 0 || s >= 1 {
		t.Fatalf("speedup ratio %v outside (0,1)", s)
	}
	// Under the congested default mapping, the overlap should hide most
	// of the checkpoint cost (transfer dominates).
	if s > 0.35 {
		t.Errorf("expected transfer-dominated round to hide >65%% of cost, blocked fraction %v", s)
	}
	if got := m.SemiBlockingSpeedup(0, FullCheckpoint, false); got != 1 {
		t.Fatalf("degenerate case should return 1, got %v", got)
	}
}

// The §4.2 checksum rule and the semi-blocking blocked fraction: no program
// asks for them, so they live here as the oracles the tests hold the cost
// model's Checkpoint and SemiBlocking to.

// EffectiveBeta returns the effective communication cost per byte of the
// full-checkpoint exchange under this model's mapping: the bottleneck link
// carries MaxBuddyLinkLoad checkpoints, so each byte of a checkpoint
// occupies the bottleneck for load/bandwidth seconds.
func (m *Model) EffectiveBeta() float64 {
	return float64(m.Mapping.MaxBuddyLinkLoad()) / m.Params.LinkBandwidth
}

// EffectiveGamma returns the per-byte computation cost of one checksum
// "instruction" in the 4-instructions-per-byte accounting of §4.2:
// gamma = 1/(4*ChecksumBandwidth).
func (m *Model) EffectiveGamma() float64 {
	return 1 / (4 * m.Params.ChecksumBandwidth)
}

// ChecksumBeneficial applies the paper's rule: the checksum method beats
// shipping the full checkpoint when gamma < beta/4.
func (m *Model) ChecksumBeneficial() bool {
	return m.EffectiveGamma() < m.EffectiveBeta()/4
}

// ChecksumAdvantage returns the time saved per checkpoint by the checksum
// method versus the full exchange (negative when the checksum loses). The
// sign agrees with ChecksumBeneficial for large checkpoints, where the
// per-byte terms dominate the fixed latencies.
func (m *Model) ChecksumAdvantage(bytesPerNode float64, scattered bool) float64 {
	full := m.Checkpoint(bytesPerNode, FullCheckpoint, scattered)
	ck := m.Checkpoint(bytesPerNode, Checksum, scattered)
	return full.Total() - ck.Total()
}

// SemiBlockingSpeedup returns the ratio of blocking time saved:
// blocking(semi) / total(blocking variant).
func (m *Model) SemiBlockingSpeedup(bytesPerNode float64, method Method, scattered bool) float64 {
	c := m.Checkpoint(bytesPerNode, method, scattered)
	if c.Total() == 0 {
		return 1
	}
	return m.SemiBlocking(bytesPerNode, method, scattered).Blocking / c.Total()
}
