package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/netsim"
)

// The exchange protocol tests run with Latency 0 and microsecond backoff,
// and decide everything from the frames the point.NetFrame hook saw — no
// assertion depends on wall-clock time.

const testChunkSize = 32

// firing is one point.NetFrame firing as the hook logged it.
type firing struct {
	chunk   int
	dropped bool
}

// frameLog is a point.NetFrame hook that logs every firing and, on a link
// without faults of its own, kills one chunk's data frame (or its ack) for
// that chunk's first `times` transmissions. Telling the victim's data
// firing from its ack firing by "an undropped data frame is followed by
// its ack" is exact only on such a clean link, which is where the drop
// rows run. The zero value only logs.
type frameLog struct {
	log           []firing
	victim, times int
	ackNotData    bool
	awaitingAck   bool // the victim's data frame got through: its next firing is the ack
}

func (l *frameLog) Fire(id point.ID, info *point.Info) {
	if id != point.NetFrame {
		return
	}
	if info.Iter == l.victim && l.times > 0 {
		isAck := l.awaitingAck
		l.awaitingAck = false
		if isAck == l.ackNotData {
			l.times--
			info.Drop = true
		} else if !isAck {
			l.awaitingAck = true
		}
	}
	l.log = append(l.log, firing{chunk: info.Iter, dropped: info.Drop})
}

// newTestExchanger attaches a hardened exchange with the given link faults
// and hook to an idle one-task controller.
func newTestExchanger(t *testing.T, cfg ExchangeConfig, hook point.Hook) *exchanger {
	t.Helper()
	ctrl, err := New(Config{NodesPerReplica: 1, TasksPerNode: 1, Factory: benchFactory(1), Exchange: &cfg, Chaos: hook})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.exch.retry.base, ctrl.exch.retry.max = time.Microsecond, time.Microsecond
	return ctrl.exch
}

// testCheckpoint is a checkpoint of the given chunk count whose every byte
// depends on its position and the salt; the tail chunk is short.
func testCheckpoint(chunks int, salt byte) *ckptstore.Checkpoint {
	data := make([]byte, chunks*testChunkSize-5)
	for i := range data {
		data[i] = byte(i*7) ^ byte(i>>8) ^ salt
	}
	return ckptstore.Capture(data, testChunkSize, 1)
}

// differingIn returns a checkpoint equal to src except in the given chunks.
func differingIn(src *ckptstore.Checkpoint, chunks ...int) *ckptstore.Checkpoint {
	data := append([]byte(nil), src.Bytes()...)
	for _, c := range chunks {
		data[c*testChunkSize] ^= 0xff
	}
	return ckptstore.Capture(data, testChunkSize, 1)
}

// wireFrame is what the reference model sends through its shadow link.
type wireFrame struct {
	chunk int
	ack   bool
}

// replayWindow is the reference model of one transfer: it walks the hook's
// log with a shadow link seeded like the exchanger's (a link's fault draws
// depend only on how many frames it was offered), re-deriving which firing
// was a data frame, which an ack, and what each provoked. It returns the
// data chunks transmitted in each pass and, per pass, the set of chunks
// whose ack had reached the sender by the end of it; a log the protocol
// could not have produced fails the test.
func replayWindow(t *testing.T, log []firing, p netsim.LinkParams) (passes [][]int, acked []map[int]bool) {
	t.Helper()
	shadow := netsim.NewLink(p)
	got := map[int]bool{}
	next, last := 0, -1
	for next < len(log) {
		k := log[next].chunk
		if len(passes) == 0 || k <= last {
			// Pending frames go out in chunk order, so a data frame that
			// does not climb starts the next pass.
			if len(passes) > 0 {
				acked = append(acked, maps.Clone(got))
			}
			passes = append(passes, nil)
		}
		last = k
		passes[len(passes)-1] = append(passes[len(passes)-1], k)
		queue := []wireFrame{{chunk: k}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if next >= len(log) || log[next].chunk != cur.chunk {
				t.Fatalf("firing %d: log has %+v, model expects %+v", next, log[min(next, len(log)-1)], cur)
			}
			f := log[next]
			next++
			if f.dropped {
				continue
			}
			for _, o := range shadow.Send(cur) {
				if g := o.(wireFrame); g.ack {
					got[g.chunk] = true
				} else {
					queue = append(queue, wireFrame{chunk: g.chunk, ack: true})
				}
			}
		}
	}
	return passes, append(acked, maps.Clone(got))
}

// checkWindow holds one finished transfer against the reference model:
// pass 0 carries exactly the chunks that had to cross, every later pass
// exactly the chunks whose data frame or ack died in the pass before it,
// and the exchanger's pass and retry counters agree with the log.
func checkWindow(t *testing.T, x *exchanger, log []firing, first []int) [][]int {
	t.Helper()
	passes, acked := replayWindow(t, log, netsim.LinkParams{Loss: x.cfg.Loss, Dup: x.cfg.Dup, Reorder: x.cfg.Reorder, Seed: x.cfg.Seed})
	if len(first) == 0 {
		if len(passes) != 0 {
			t.Fatalf("nothing had to cross, yet frames were sent: %v", passes)
		}
		return passes
	}
	if !slices.Equal(passes[0], first) {
		t.Fatalf("pass 0 sent chunks %v, want %v", passes[0], first)
	}
	var resent int64
	for p := 1; p < len(passes); p++ {
		var want []int
		for _, k := range passes[p-1] {
			if !acked[p-1][k] {
				want = append(want, k)
			}
		}
		if !slices.Equal(passes[p], want) {
			t.Fatalf("pass %d resent chunks %v; the chunks whose data or ack died in pass %d are %v", p, passes[p], p-1, want)
		}
		resent += int64(len(want))
	}
	if got := x.passes.Load(); got != int64(len(passes)) {
		t.Errorf("pass counter = %d, the log shows %d passes", got, len(passes))
	}
	if got := x.retries.Load(); got != resent {
		t.Errorf("retries = %d, the log shows %d resent frames", got, resent)
	}
	if got := x.frames.Load(); got != int64(len(log)) {
		t.Errorf("frames = %d, the hook saw %d", got, len(log))
	}
	return passes
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestWindowSelectiveRepeat ships multi-chunk transfers over clean and
// faulty links and checks, from the frame log alone, that a transfer is one
// window: every chunk goes out in the first pass, only the frames that lost
// their data or ack go out again, and the reassembled checkpoint is the
// source. A clean link needs exactly one pass whatever the chunk count.
func TestWindowSelectiveRepeat(t *testing.T) {
	links := []struct {
		name                string
		loss, dup, reorder  float64
		wantClean, wantLoss bool
	}{
		{name: "clean", wantClean: true},
		{name: "loss", loss: 0.2, wantLoss: true},
		{name: "dup", dup: 0.3, wantClean: true},
		{name: "reorder", reorder: 0.3},
		{name: "mixed", loss: 0.1, dup: 0.1, reorder: 0.2, wantLoss: true},
	}
	for _, link := range links {
		for _, chunks := range []int{1, 16, 41} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%dchunks/seed%d", link.name, chunks, seed), func(t *testing.T) {
					hook := &frameLog{}
					x := newTestExchanger(t, ExchangeConfig{Loss: link.loss, Dup: link.dup, Reorder: link.reorder, Seed: seed}, hook)
					src := testCheckpoint(chunks, byte(seed))
					got, err := x.shipCheckpoint(3, 0, 0, src, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Root != src.Root || !bytes.Equal(got.Bytes(), src.Bytes()) {
						t.Fatal("reassembled checkpoint differs from the source")
					}
					if &got.Bytes()[0] == &src.Bytes()[0] {
						t.Fatal("reassembled checkpoint aliases the source")
					}
					passes := checkWindow(t, x, hook.log, seq(chunks))
					if link.wantClean && len(passes) != 1 {
						// Duplicates cost frames, never a round trip.
						t.Errorf("%d passes on a link that loses nothing, want 1", len(passes))
					}
					if link.wantLoss && chunks == 41 && len(passes) < 2 {
						t.Errorf("a lossy link cost a 41-chunk transfer no second pass")
					}
				})
			}
		}
	}
}

// TestWindowResendsOnlyTheDroppedChunk kills one mid-window chunk's data
// frame, or its ack, for its first j transmissions on an otherwise clean
// link: the transfer takes 1 + j passes, and every pass after the first
// carries that chunk alone.
func TestWindowResendsOnlyTheDroppedChunk(t *testing.T) {
	const chunks, victim = 24, 13
	for _, ack := range []bool{false, true} {
		for j := 0; j <= 3; j++ {
			t.Run(fmt.Sprintf("ack=%v/drops=%d", ack, j), func(t *testing.T) {
				hook := &frameLog{victim: victim, times: j, ackNotData: ack}
				x := newTestExchanger(t, ExchangeConfig{Seed: 9}, hook)
				src := testCheckpoint(chunks, 0x5a)
				got, err := x.shipCheckpoint(1, 0, 0, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Root != src.Root || !bytes.Equal(got.Bytes(), src.Bytes()) {
					t.Fatal("reassembled checkpoint differs from the source")
				}
				passes := checkWindow(t, x, hook.log, seq(chunks))
				if len(passes) != 1+j {
					t.Fatalf("%d passes, want %d", len(passes), 1+j)
				}
				for p := 1; p < len(passes); p++ {
					if !slices.Equal(passes[p], []int{victim}) {
						t.Errorf("pass %d resent %v, want only chunk %d", p, passes[p], victim)
					}
				}
			})
		}
	}
}

// TestWindowGivesUpNamingLowestPendingChunk: a transfer that runs out of
// attempts, and one whose deadline has already passed, fail with
// ErrExchange naming the lowest chunk still unacknowledged.
func TestWindowGivesUpNamingLowestPendingChunk(t *testing.T) {
	t.Run("attempts", func(t *testing.T) {
		// Chunks 5 and 9 never get through; everything else does at once.
		hook := point.HookFunc(func(id point.ID, info *point.Info) {
			info.Drop = id == point.NetFrame && (info.Iter == 5 || info.Iter == 9)
		})
		x := newTestExchanger(t, ExchangeConfig{}, hook)
		x.retry.attempts = 3
		_, err := x.shipCheckpoint(2, 0, 0, testCheckpoint(16, 1), nil)
		if !errors.Is(err, ErrExchange) || !strings.Contains(err.Error(), "n0/t0@e2 chunk 5 unacknowledged after 3 attempts") {
			t.Fatalf("err = %v, want ErrExchange naming chunk 5 after 3 attempts", err)
		}
		if got := x.passes.Load(); got != 3 {
			t.Errorf("passes = %d, want the 3 attempts allowed", got)
		}
		if got := x.retries.Load(); got != 4 {
			t.Errorf("retries = %d, want 2 chunks resent in each of 2 passes", got)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		x := newTestExchanger(t, ExchangeConfig{}, nil)
		x.retry.deadline = time.Nanosecond
		src := testCheckpoint(16, 2)
		_, err := x.shipCheckpoint(2, 0, 0, src, differingIn(src, 7, 11))
		if !errors.Is(err, ErrExchange) || !strings.Contains(err.Error(), "chunk 7 missed the round deadline") {
			t.Fatalf("err = %v, want ErrExchange naming chunk 7 and the deadline", err)
		}
		if got := x.frames.Load(); got != 0 {
			t.Errorf("%d frames sent past an expired deadline", got)
		}
		if err := x.shipResult(2); !errors.Is(err, ErrExchange) {
			t.Errorf("compare-result message past the deadline: err = %v, want ErrExchange", err)
		}
	})
}

// TestWindowShipsOnlyChunksTheBaseLacks: against a base that matches on
// every even chunk, only the odd chunks cross (counted exactly), the
// result is the source in a buffer of its own; and a base whose bytes were
// corrupted under an unchanged sum is caught by the root check, loudly.
func TestWindowShipsOnlyChunksTheBaseLacks(t *testing.T) {
	const chunks = 20
	src := testCheckpoint(chunks, 3)
	var odd []int
	for c := 1; c < chunks; c += 2 {
		odd = append(odd, c)
	}

	hook := &frameLog{}
	x := newTestExchanger(t, ExchangeConfig{Loss: 0.1, Reorder: 0.1, Seed: 4}, hook)
	base := differingIn(src, odd...)
	got, err := x.shipCheckpoint(1, 0, 0, src, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != src.Root || !bytes.Equal(got.Bytes(), src.Bytes()) {
		t.Fatal("reassembled checkpoint differs from the source")
	}
	if &got.Bytes()[0] == &src.Bytes()[0] || &got.Bytes()[0] == &base.Bytes()[0] {
		t.Fatal("reassembled checkpoint aliases the source or the base")
	}
	checkWindow(t, x, hook.log, odd)
	if s, r := x.chunksShipped.Load(), x.chunksReused.Load(); s != chunks/2 || r != chunks/2 {
		t.Errorf("shipped %d reused %d, want %d and %d", s, r, chunks/2, chunks/2)
	}

	// An identical base ships nothing at all.
	hook = &frameLog{}
	x = newTestExchanger(t, ExchangeConfig{}, hook)
	if _, err := x.shipCheckpoint(1, 0, 0, src, testCheckpoint(chunks, 3)); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, x, hook.log, nil)

	// Bytes of a reused chunk rot while its recorded sum stays.
	x = newTestExchanger(t, ExchangeConfig{}, nil)
	rotten := differingIn(src, odd...)
	rotten.MutableBytes()[4*testChunkSize+3] ^= 0x10
	_, err = x.shipCheckpoint(1, 0, 0, src, rotten)
	if !errors.Is(err, ErrExchange) || !strings.Contains(err.Error(), "root mismatch") {
		t.Fatalf("err = %v, want the root check to fail", err)
	}
}

// TestExchangeMapsPrunedAtCommit: the dedupe maps hold one round's frames
// however many rounds commit, and a frame of a pruned epoch that surfaces
// late is dropped without touching them or provoking an ack.
func TestExchangeMapsPrunedAtCommit(t *testing.T) {
	const tasks, chunks, rounds = 4, 16, 200
	cfg := ExchangeConfig{Loss: 0.05, Dup: 0.1, Reorder: 0.2, Seed: 6}
	ctrl, err := New(Config{NodesPerReplica: 1, TasksPerNode: tasks, Factory: benchFactory(1), Exchange: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	x := ctrl.exch
	x.retry.base, x.retry.max = time.Microsecond, time.Microsecond
	const roundFrames = tasks*chunks + 1 // every chunk, and the compare-result message
	for r := 0; r < rounds; r++ {
		epoch := ctrl.nextEpoch()
		for task := 0; task < tasks; task++ {
			if _, err := x.shipCheckpoint(epoch, 0, task, testCheckpoint(chunks, byte(r+task)), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.shipResult(epoch); err != nil {
			t.Fatal(err)
		}
		ctrl.commit(epoch, time.Now(), false)
		if len(x.seen) > roundFrames || len(x.acked) > roundFrames {
			t.Fatalf("after %d commits: %d seen and %d acked entries, one round has %d frames", r+1, len(x.seen), len(x.acked), roundFrames)
		}
	}
	if len(x.seen) == 0 || len(x.assembling) != 0 {
		t.Fatalf("seen %d (want the last round's), assembling %d (want none)", len(x.seen), len(x.assembling))
	}

	stale := frameID{epoch: ctrl.committedEpoch - 1, node: 0, task: 2, chunk: 3}
	seen, acked, frames := len(x.seen), len(x.acked), x.frames.Load()
	x.link = netsim.NewLink(netsim.LinkParams{}) // nothing held, nothing lost: both frames arrive
	x.transmit(frame{id: stale, payload: []byte("late"), off: 3 * testChunkSize})
	x.transmit(frame{id: stale, ack: true})
	if len(x.seen) != seen || len(x.acked) != acked {
		t.Errorf("a straggler below the floor grew the maps: seen %d→%d, acked %d→%d", seen, len(x.seen), acked, len(x.acked))
	}
	if got := x.frames.Load() - frames; got != 2 {
		t.Errorf("two stale frames put %d frames on the wire; a dropped straggler provokes no ack", got)
	}
}
