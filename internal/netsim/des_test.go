package netsim

import (
	"fmt"
	"math"
	"testing"

	"acr/internal/sim"
	"acr/internal/topology"
)

// This file holds the closed form's test oracle: a packet-level
// discrete-event simulation of the torus network. The closed-form model in
// netsim.go claims that a buddy-exchange
// phase drains when its most congested link drains; the DES checks that
// claim from first principles: messages are split into packets, every
// packet traverses its dimension-ordered route hop by hop, each directional
// link serializes the packets crossing it, and packets cut through to the
// next hop as soon as their tail clears the link. Tests assert that the
// closed form and the DES agree on phase completion times and orderings.

// DESConfig parameterizes a network simulation.
type DESConfig struct {
	// PacketBytes is the segmentation size; smaller packets pipeline
	// better but cost more events. Defaults to 64 KiB.
	PacketBytes float64
}

func (c *DESConfig) defaults() {
	if c.PacketBytes <= 0 {
		c.PacketBytes = 64 << 10
	}
}

// Transfer is one point-to-point message for the DES.
type Transfer struct {
	Src, Dst int // torus node ranks
	Bytes    float64
}

// SimulateTransfers runs the packet-level DES for a set of concurrent
// transfers, all injected at time zero, and returns the phase completion
// time (the instant the last packet's tail reaches its destination).
func SimulateTransfers(t topology.Torus, p Params, transfers []Transfer, cfg DESConfig) (float64, error) {
	cfg.defaults()
	if p.LinkBandwidth <= 0 || p.InjectionBandwidth <= 0 {
		return 0, fmt.Errorf("netsim: DES needs positive bandwidths")
	}

	type packet struct {
		route []topology.Link
		bytes float64
	}
	var packets []*packet
	for _, tr := range transfers {
		if tr.Bytes <= 0 {
			continue
		}
		if tr.Src == tr.Dst {
			continue
		}
		route := t.Route(t.CoordOf(tr.Src), t.CoordOf(tr.Dst))
		remaining := tr.Bytes
		for remaining > 0 {
			b := cfg.PacketBytes
			if b > remaining {
				b = remaining
			}
			packets = append(packets, &packet{route: route, bytes: b})
			remaining -= b
		}
	}
	if len(packets) == 0 {
		return 0, nil
	}

	// linkFree[i] is the time directional link i finishes its current
	// transmission; nicFree[n] is the same for node n's injection port.
	linkFree := make([]float64, t.NumLinks())
	nicFree := make([]float64, t.Nodes())

	eng := sim.NewEngine()
	end := 0.0

	// hop advances a packet onto route[hopIdx] at the engine's current
	// time: it waits for the link, holds it for the serialization time,
	// and cuts through to the next hop one latency later.
	var hop func(e *sim.Engine, pk *packet, hopIdx int)
	hop = func(e *sim.Engine, pk *packet, hopIdx int) {
		link := pk.route[hopIdx]
		idx := t.LinkIndex(link)
		start := e.Now()
		if linkFree[idx] > start {
			start = linkFree[idx]
		}
		ser := pk.bytes / p.LinkBandwidth
		linkFree[idx] = start + ser
		tailAt := start + p.LinkLatency + ser
		if hopIdx+1 < len(pk.route) {
			eng.At(tailAt, func(e *sim.Engine) { hop(e, pk, hopIdx+1) })
			return
		}
		if tailAt > end {
			end = tailAt
		}
	}

	// Injection: each source node's NIC serializes its own packets.
	for _, pk := range packets {
		pk := pk
		src := t.RankOf(pk.route[0].From)
		inj := pk.bytes / p.InjectionBandwidth
		start := nicFree[src]
		nicFree[src] = start + inj
		eng.At(start+inj, func(e *sim.Engine) { hop(e, pk, 0) })
	}
	eng.Run()
	return end, nil
}

// SimulateBuddyExchange runs the DES for the checkpoint-exchange pattern:
// every replica-0 node sends bytesPerNode to its buddy, the member of
// replica 1 at the same position in rank order.
func SimulateBuddyExchange(m *topology.Mapping, p Params, bytesPerNode float64, cfg DESConfig) (float64, error) {
	var transfers []Transfer
	for i, rank := range m.Members(0) {
		transfers = append(transfers, Transfer{Src: rank, Dst: m.Members(1)[i], Bytes: bytesPerNode})
	}
	return SimulateTransfers(m.Torus, p, transfers, cfg)
}

func desExchange(t *testing.T, shape [3]int, scheme topology.Scheme, chunk int, bytes float64) (des, closed float64) {
	t.Helper()
	tr, err := topology.NewTorus(shape[0], shape[1], shape[2])
	if err != nil {
		t.Fatal(err)
	}
	m, err := topology.NewMapping(tr, scheme, chunk)
	if err != nil {
		t.Fatal(err)
	}
	p := BGPParams()
	got, err := SimulateBuddyExchange(m, p, bytes, DESConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return got, New(m, p).transferTime(bytes)
}

// The headline validation: the packet-level simulation agrees with the
// closed-form bottleneck model on the buddy-exchange completion time.
func TestDESValidatesClosedForm(t *testing.T) {
	const bytes = 4e6
	cases := []struct {
		shape  [3]int
		scheme topology.Scheme
		chunk  int
	}{
		{[3]int{4, 4, 8}, topology.DefaultScheme, 0},
		{[3]int{8, 8, 8}, topology.DefaultScheme, 0},
		{[3]int{8, 8, 16}, topology.DefaultScheme, 0},
		{[3]int{8, 8, 8}, topology.ColumnScheme, 0},
		{[3]int{8, 8, 8}, topology.MixedScheme, 2},
	}
	for _, c := range cases {
		des, closed := desExchange(t, c.shape, c.scheme, c.chunk, bytes)
		if des <= 0 || closed <= 0 {
			t.Fatalf("%v/%v: degenerate times %v, %v", c.shape, c.scheme, des, closed)
		}
		rel := math.Abs(des-closed) / closed
		if rel > 0.25 {
			t.Errorf("%v/%v: DES %.4fs vs closed form %.4fs (%.0f%% apart)",
				c.shape, c.scheme, des, closed, rel*100)
		}
	}
}

// The DES independently reproduces the Figure 8 shape: default-mapping
// exchange time doubles when the Z extent doubles; column mapping stays
// flat.
func TestDESGrowthWithZ(t *testing.T) {
	const bytes = 4e6
	d8, _ := desExchange(t, [3]int{8, 8, 8}, topology.DefaultScheme, 0, bytes)
	d16, _ := desExchange(t, [3]int{8, 8, 16}, topology.DefaultScheme, 0, bytes)
	if ratio := d16 / d8; ratio < 1.7 || ratio > 2.3 {
		t.Errorf("default exchange Z8->Z16 ratio = %.2f, want ~2", ratio)
	}
	c8, _ := desExchange(t, [3]int{8, 8, 8}, topology.ColumnScheme, 0, bytes)
	c16, _ := desExchange(t, [3]int{8, 8, 16}, topology.ColumnScheme, 0, bytes)
	if rel := math.Abs(c16-c8) / c8; rel > 0.1 {
		t.Errorf("column exchange should be flat: %.4f vs %.4f", c8, c16)
	}
	// Ordering across mappings at a fixed allocation.
	m8, _ := desExchange(t, [3]int{8, 8, 8}, topology.MixedScheme, 2, bytes)
	if !(d8 > m8 && m8 > c8) {
		t.Errorf("mapping ordering broken: default %.4f, mixed %.4f, column %.4f", d8, m8, c8)
	}
}

func TestDESDegenerateInputs(t *testing.T) {
	tr, _ := topology.NewTorus(4, 4, 4)
	p := BGPParams()
	// No transfers.
	got, err := SimulateTransfers(tr, p, nil, DESConfig{})
	if err != nil || got != 0 {
		t.Fatalf("empty set: %v, %v", got, err)
	}
	// Zero-byte and self transfers are skipped.
	got, err = SimulateTransfers(tr, p, []Transfer{{Src: 0, Dst: 0, Bytes: 100}, {Src: 1, Dst: 2, Bytes: 0}}, DESConfig{})
	if err != nil || got != 0 {
		t.Fatalf("degenerate transfers: %v, %v", got, err)
	}
	// Invalid params.
	if _, err := SimulateTransfers(tr, Params{}, []Transfer{{Src: 0, Dst: 1, Bytes: 1}}, DESConfig{}); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
}

func TestDESSingleTransferMatchesAnalytic(t *testing.T) {
	tr, _ := topology.NewTorus(8, 1, 1)
	p := BGPParams()
	const bytes = 1e6
	got, err := SimulateTransfers(tr, p, []Transfer{{Src: 0, Dst: 3, Bytes: bytes}}, DESConfig{PacketBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// With pipelining, injection overlaps transmission: the first link
	// serializes the whole message after the first packet is injected,
	// and each further hop adds one latency plus one packet time for the
	// tail to drain through.
	ser := bytes / p.LinkBandwidth
	pktSer := float64(64<<10) / p.LinkBandwidth
	pktInj := float64(64<<10) / p.InjectionBandwidth
	want := pktInj + ser + 2*(p.LinkLatency+pktSer) + p.LinkLatency
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("single transfer: DES %.6f vs analytic %.6f", got, want)
	}
}

func TestDESPacketSizeInsensitivity(t *testing.T) {
	// Completion time must be stable across reasonable packet sizes
	// (pipelining works), not an artifact of segmentation.
	tr, _ := topology.NewTorus(8, 8, 8)
	m, _ := topology.NewMapping(tr, topology.DefaultScheme, 0)
	p := BGPParams()
	a, err := SimulateBuddyExchange(m, p, 2e6, DESConfig{PacketBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateBuddyExchange(m, p, 2e6, DESConfig{PacketBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(a-b) / a; rel > 0.15 {
		t.Errorf("packet-size sensitivity too high: %.4f vs %.4f", a, b)
	}
}

func BenchmarkDESBuddyExchange(b *testing.B) {
	tr, _ := topology.NewTorus(8, 8, 8)
	m, _ := topology.NewMapping(tr, topology.DefaultScheme, 0)
	p := BGPParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateBuddyExchange(m, p, 4e6, DESConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
