package apps

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"acr/internal/runtime"
)

// The cell-by-cell kernels the row-sliced ones replaced, kept as oracles:
// one cell at a time, every neighbour behind its boundary branch. The new
// kernels must reproduce them bit for bit (DESIGN.md §18).

// refRelax is one 7-point sweep of the bx*by*bz block u with the six halo
// faces (nil = zero boundary).
func refRelax(u []float64, bx, by, bz int, halos [6][]float64) []float64 {
	idx := func(i, k, l int) int { return (l*by+k)*bx + i }
	next := make([]float64, len(u))
	at := func(h []float64, i int) float64 {
		if h == nil {
			return 0
		}
		return h[i]
	}
	for l := 0; l < bz; l++ {
		for k := 0; k < by; k++ {
			for i := 0; i < bx; i++ {
				var xm, xp, ym, yp, zm, zp float64
				if i > 0 {
					xm = u[idx(i-1, k, l)]
				} else {
					xm = at(halos[0], l*by+k)
				}
				if i < bx-1 {
					xp = u[idx(i+1, k, l)]
				} else {
					xp = at(halos[1], l*by+k)
				}
				if k > 0 {
					ym = u[idx(i, k-1, l)]
				} else {
					ym = at(halos[2], l*bx+i)
				}
				if k < by-1 {
					yp = u[idx(i, k+1, l)]
				} else {
					yp = at(halos[3], l*bx+i)
				}
				if l > 0 {
					zm = u[idx(i, k, l-1)]
				} else {
					zm = at(halos[4], k*bx+i)
				}
				if l < bz-1 {
					zp = u[idx(i, k, l+1)]
				} else {
					zp = at(halos[5], k*bx+i)
				}
				c := u[idx(i, k, l)]
				next[idx(i, k, l)] = (c + xm + xp + ym + yp + zm + zp) / 7
			}
		}
	}
	return next
}

// refSweep is the slab sweep of JacobiAMPI: zero X and Y boundaries, halo
// planes in Z, and the squared-update residual accumulated cell by cell.
func refSweep(u []float64, bx, by, bz int, below, above []float64) ([]float64, float64) {
	idx := func(i, k, l int) int { return (l*by+k)*bx + i }
	next := make([]float64, len(u))
	res := 0.0
	at := func(h []float64, i int) float64 {
		if h == nil {
			return 0
		}
		return h[i]
	}
	for l := 0; l < bz; l++ {
		for k := 0; k < by; k++ {
			for i := 0; i < bx; i++ {
				var xm, xp, ym, yp, zm, zp float64
				if i > 0 {
					xm = u[idx(i-1, k, l)]
				}
				if i < bx-1 {
					xp = u[idx(i+1, k, l)]
				}
				if k > 0 {
					ym = u[idx(i, k-1, l)]
				}
				if k < by-1 {
					yp = u[idx(i, k+1, l)]
				}
				if l > 0 {
					zm = u[idx(i, k, l-1)]
				} else {
					zm = at(below, k*bx+i)
				}
				if l < bz-1 {
					zp = u[idx(i, k, l+1)]
				} else {
					zp = at(above, k*bx+i)
				}
				c := u[idx(i, k, l)]
				v := (c + xm + xp + ym + yp + zm + zp) / 7
				next[idx(i, k, l)] = v
				res += (v - c) * (v - c)
			}
		}
	}
	return next, res
}

// refMatvec is y = A*v on an nx*ny*nz slab with halo planes in Z.
func refMatvec(v []float64, nx, ny, nz int, below, above []float64) []float64 {
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	y := make([]float64, len(v))
	at := func(i, j, k int) float64 {
		if i < 0 || i >= nx || j < 0 || j >= ny {
			return 0
		}
		switch {
		case k < 0:
			if below == nil {
				return 0
			}
			return below[j*nx+i]
		case k >= nz:
			if above == nil {
				return 0
			}
			return above[j*nx+i]
		default:
			return v[idx(i, j, k)]
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				sum := 27 * v[idx(i, j, k)]
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							sum -= at(i+di, j+dj, k+dk)
						}
					}
				}
				y[idx(i, j, k)] = sum
			}
		}
	}
	return y
}

// kernelShapes are the property tests' blocks: degenerate in every axis,
// the smallest with an interior, odd edges, and the ledger's 24^3.
var kernelShapes = [][3]int{{1, 1, 1}, {2, 1, 3}, {3, 3, 3}, {6, 5, 7}, {24, 24, 24}}

// testVals draws n inputs. Seed 1 is plain values; seeds 2 and 3 mix in the
// values whose sign or class a reordered or skipped operation would change:
// ±0, subnormals, a NaN. (One NaN payload and no infinities, so no second
// payload is ever created and which one survives a NaN+NaN — the
// instruction's operand order, not arithmetic — cannot matter.)
func testVals(rng *rand.Rand, seed int64, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), 5e-324, -5e-324, 1e300, -1e-300}
	out := make([]float64, n)
	for i := range out {
		switch {
		case seed > 1 && rng.Intn(4) == 0:
			out[i] = special[rng.Intn(len(special))]
		case seed == 3:
			out[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// sameBits fails the test at the first element of got that is not want's
// bit pattern.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRelaxMatchesReference: Jacobi.relax equals the cell-by-cell sweep bit
// for bit on every shape, for every subset of present halo faces.
func TestRelaxMatchesReference(t *testing.T) {
	for _, sh := range kernelShapes {
		bx, by, bz := sh[0], sh[1], sh[2]
		faceLen := [6]int{by * bz, by * bz, bx * bz, bx * bz, bx * by, bx * by}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for present := 0; present < 1<<6; present++ {
				u := testVals(rng, seed, bx*by*bz)
				var halos [6][]float64
				for d := range halos {
					if present&(1<<d) != 0 {
						halos[d] = testVals(rng, seed, faceLen[d])
					}
				}
				want := refRelax(u, bx, by, bz, halos)
				j := &Jacobi{BX: bx, BY: by, BZ: bz, U: u}
				j.relax(halos)
				sameBits(t, fmt.Sprintf("relax %v seed %d halos %06b", sh, seed, present), j.U, want)
				// A second sweep runs on the swapped buffers.
				want = refRelax(want, bx, by, bz, halos)
				j.relax(halos)
				sameBits(t, fmt.Sprintf("relax twice %v seed %d halos %06b", sh, seed, present), j.U, want)
			}
		}
	}
}

// TestSweepMatchesReference: JacobiAMPI.sweep equals the cell-by-cell slab
// sweep, residual included, bit for bit.
func TestSweepMatchesReference(t *testing.T) {
	for _, sh := range kernelShapes {
		bx, by, bz := sh[0], sh[1], sh[2]
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for present := 0; present < 1<<2; present++ {
				u := testVals(rng, seed, bx*by*bz)
				var below, above []float64
				if present&1 != 0 {
					below = testVals(rng, seed, bx*by)
				}
				if present&2 != 0 {
					above = testVals(rng, seed, bx*by)
				}
				want, wantRes := refSweep(u, bx, by, bz, below, above)
				j := &JacobiAMPI{BX: bx, BY: by, BZ: bz, U: u}
				res := j.sweep(below, above)
				what := fmt.Sprintf("sweep %v seed %d halos %02b", sh, seed, present)
				sameBits(t, what, j.U, want)
				sameBits(t, what+" residual", []float64{res}, []float64{wantRes})
			}
		}
	}
}

// TestMatvecMatchesReference: HPCCG.matvecInto equals the cell-by-cell
// operator bit for bit.
func TestMatvecMatchesReference(t *testing.T) {
	for _, sh := range kernelShapes {
		nx, ny, nz := sh[0], sh[1], sh[2]
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for present := 0; present < 1<<2; present++ {
				v := testVals(rng, seed, nx*ny*nz)
				var below, above []float64
				if present&1 != 0 {
					below = testVals(rng, seed, nx*ny)
				}
				if present&2 != 0 {
					above = testVals(rng, seed, nx*ny)
				}
				h := &HPCCG{NX: nx, NY: ny, NZ: nz}
				sameBits(t, fmt.Sprintf("matvec %v seed %d halos %02b", sh, seed, present),
					h.matvec(v, below, above), refMatvec(v, nx, ny, nz, below, above))
			}
		}
	}
}

// ledgerJacobi is a stencil-link task (32x32x64) with all six halos present.
func ledgerJacobi() (*Jacobi, [6][]float64) {
	const bx, by, bz = 32, 32, 64
	rng := rand.New(rand.NewSource(1))
	j := &Jacobi{BX: bx, BY: by, BZ: bz, U: testVals(rng, 1, bx*by*bz)}
	var halos [6][]float64
	for d, n := range [6]int{by * bz, by * bz, bx * bz, bx * bz, bx * by, bx * by} {
		halos[d] = testVals(rng, 1, n)
	}
	return j, halos
}

// ledgerHPCCG is a cg-faults task (24^3) with its input vector and one halo
// plane, as on an end rank of the slab decomposition.
func ledgerHPCCG() (h *HPCCG, y, v, above []float64) {
	const n = 24
	rng := rand.New(rand.NewSource(1))
	return &HPCCG{NX: n, NY: n, NZ: n}, make([]float64, n*n*n), testVals(rng, 1, n*n*n), testVals(rng, 1, n*n)
}

// TestKernelsAllocationFree: after one warm call the kernels and the face
// extraction allocate nothing.
func TestKernelsAllocationFree(t *testing.T) {
	j, halos := ledgerJacobi()
	a := &JacobiAMPI{BX: j.BX, BY: j.BY, BZ: j.BZ, U: append([]float64(nil), j.U...)}
	h, y, v, above := ledgerHPCCG()
	for name, f := range map[string]func(){
		"relax":      func() { j.relax(halos) },
		"sweep":      func() { a.sweep(halos[4], halos[5]) },
		"matvecInto": func() { h.matvecInto(y, v, nil, above) },
		"faceVals": func() {
			for d := 0; d < 6; d++ {
				j.faceVals(d)
			}
		},
	} {
		f()
		if n := testing.AllocsPerRun(5, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

// TestRunAllocationBudget: a whole Run allocates a few small objects per
// iteration — the message payloads boxed into the mailbox — and nothing the
// size of a grid, a face or a plane. Measured as the difference between a
// 250- and a 50-iteration run of the same bare machine (2 replicas x 8
// tasks; 16^3 = 32 KiB grids, 2048 elements, 64 atoms), which cancels the
// set-up.
func TestRunAllocationBudget(t *testing.T) {
	const short, long, tasks = 50, 250, 2 * 8
	measure := func(f runtime.Factory) (mallocs, bytes uint64) {
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		runClean(t, f, 2, 4)
		goruntime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	for name, sized := range map[string]func(iters int) runtime.Factory{
		"Jacobi":     func(n int) runtime.Factory { return JacobiFactorySized(n, 16, 16, 16) },
		"JacobiAMPI": func(n int) runtime.Factory { return JacobiAMPIFactorySized(n, 16, 16, 16) },
		"HPCCG":      func(n int) runtime.Factory { return HPCCGFactorySized(n, 16, 16, 16) },
		"LULESH":     func(n int) runtime.Factory { return LuleshFactorySized(n, 2048) },
		"LeanMD":     func(n int) runtime.Factory { return LeanMDFactorySized(n, 64) },
		"miniMD":     func(n int) runtime.Factory { return MiniMDFactorySized(n, 64) },
	} {
		m0, b0 := measure(sized(short))
		m1, b1 := measure(sized(long))
		const per = float64((long - short) * tasks)
		mallocs, bytes := float64(m1-m0)/per, float64(b1-b0)/per
		t.Logf("%s: %.1f allocations, %.0f bytes per task-iteration", name, mallocs, bytes)
		if mallocs > 8 || bytes > 512 {
			t.Errorf("%s: %.1f allocations, %.0f bytes per task-iteration; budget 8 and 512 (the smallest recycled payload is 512 bytes)",
				name, mallocs, bytes)
		}
	}
}

// benchKernel times f after one warm call has sized its scratch.
func benchKernel(b *testing.B, f func()) {
	f()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

// The three ledger kernels at the ledger's shapes: 32x32x64 (stencil-link)
// and 24^3 with one halo plane (cg-faults).
func BenchmarkRelax(b *testing.B) {
	j, halos := ledgerJacobi()
	benchKernel(b, func() { j.relax(halos) })
}

func BenchmarkSweep(b *testing.B) {
	j, halos := ledgerJacobi()
	a := &JacobiAMPI{BX: j.BX, BY: j.BY, BZ: j.BZ, U: j.U}
	benchKernel(b, func() { a.sweep(halos[4], halos[5]) })
}

func BenchmarkMatvec(b *testing.B) {
	h, y, v, above := ledgerHPCCG()
	benchKernel(b, func() { h.matvecInto(y, v, nil, above) })
}
