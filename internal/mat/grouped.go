package mat

import "fmt"

// Pooled multi-agent dispatch: persistent packed B panels and a
// block-diagonal ("grouped") GEMM. S agents sharing one architecture
// stack their batch-1 activations into a single matrix; row i
// multiplies agent i's weight matrix. Every destination element still
// accumulates its k terms in ascending order with individual roundings
// on the shared microkernels, so a grouped product is bit-identical to
// the per-agent Mul/MulBiasAct calls it replaces, which run batch-1
// rows on the streaming kernel.

// PackedB is a B operand packed once into nr-wide column panels and
// kept (owned storage, not the scratch pool) so repeated products
// against the same weights — the pooled action-selection sweep — skip
// the per-call packing that makes batch-1 GEMMs memory-bound.
type PackedB struct {
	K, N int // operand shape: K rows (depth) × N cols
	Data []float64
}

// PackB packs b into a persistent panel buffer.
func PackB(b *Matrix) *PackedB {
	pb := &PackedB{}
	pb.RepackFrom(b)
	return pb
}

// RepackFrom re-packs b in place, reusing the panel buffer when the
// shape still fits. Call after the underlying weights change.
func (pb *PackedB) RepackFrom(b *Matrix) {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	need := panels * nr * k
	if cap(pb.Data) < need {
		pb.Data = make([]float64, need)
	}
	pb.Data = pb.Data[:need]
	pb.K, pb.N = k, n
	packBInto(pb.Data, b)
}

// MulPackedBiasAct computes dst = act(a·b + bias) against a pre-packed
// operand. Unlike MulBiasAct it runs the packed kernels at every row
// count — a single-row product pays no packing and still gets the
// register-tiled microkernel. Bitwise it equals MulBiasAct(dst, a, b,
// bias, act) for the b that was packed. The degenerate shapes (k = 0 or
// n = 0) zero-fill and apply the epilogue exactly like the streaming
// kernel.
func MulPackedBiasAct(dst, a *Matrix, pb *PackedB, bias []float64, act Activation) {
	if a.Cols != pb.K || dst.Rows != a.Rows || dst.Cols != pb.N {
		panic(fmt.Sprintf("mat: MulPackedBiasAct dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != pb.N {
		panic("mat: MulPackedBiasAct bias length mismatch")
	}
	rows, k, n := a.Rows, a.Cols, dst.Cols
	switch {
	case k == 0 || n == 0:
		dst.Zero()
		biasActRange(dst, 0, rows, bias, act)
	case rows < mr:
		// Narrow products (solo batch-1 action selection on persistent
		// packs): the fused multi-panel row kernel skips the per-panel
		// call dispatch. Bitwise identical to the per-row tile loop.
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		for i := 0; i < rows; i++ {
			gemmPackedRowFused(dst.Row(i), a.Row(i), pb.Data, rowScr.Data, k, n, true, false, bias, act)
		}
		PutScratch(rowScr)
	case useParallel(rows, rows*k*n):
		parallelRows(rows, func(r0, r1 int) {
			gemmPackedRange(dst, a, pb.Data, r0, r1, true, false, bias, act)
		})
	default:
		gemmPackedRange(dst, a, pb.Data, 0, rows, true, false, bias, act)
	}
}

// Group is one row of a grouped product: a pre-packed operand (see
// PackB) and its bias.
type Group struct {
	Packed *PackedB
	Bias   []float64 // broadcast-added in the epilogue (nil for none)
}

// MulGroupedBiasAct computes the block-diagonal batch-1 product of
// pooled action selection: row i of dst is act(a_i·B_i + bias_i) for
// groups[i]. Every operand must share the depth a.Cols and the output
// width dst.Cols (agents share one architecture). Each row is
// bit-identical to MulBiasAct over that row alone.
func MulGroupedBiasAct(dst, a *Matrix, groups []Group, act Activation) {
	if a.Rows != len(groups) || dst.Rows != a.Rows {
		panic(fmt.Sprintf("mat: MulGroupedBiasAct has %d rows for %d groups", a.Rows, len(groups)))
	}
	k, n := a.Cols, dst.Cols
	for i := range groups {
		g := &groups[i]
		if g.Packed.K != k || g.Packed.N != n {
			panic(fmt.Sprintf("mat: MulGroupedBiasAct group %d is %dx%d, want %dx%d", i, g.Packed.K, g.Packed.N, k, n))
		}
		if g.Bias != nil && len(g.Bias) != n {
			panic("mat: MulGroupedBiasAct bias length mismatch")
		}
	}
	if k == 0 || n == 0 {
		dst.Zero()
		for i := range groups {
			biasActRange(dst, i, i+1, groups[i].Bias, act)
		}
		return
	}
	// Fan out across the stacked rows; each row reads its own group's
	// panels straight out of its PackedB.
	run := func(r0, r1 int) {
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		defer PutScratch(rowScr)
		for i := r0; i < r1; i++ {
			gemmPackedRowFused(dst.Row(i), a.Row(i), groups[i].Packed.Data, rowScr.Data, k, n, true, false, groups[i].Bias, act)
		}
	}
	if useParallel(a.Rows, a.Rows*k*n) {
		parallelRows(a.Rows, run)
	} else {
		run(0, a.Rows)
	}
}

// DispatchInfo describes the execution path Mul/MulBiasAct selects for
// a given product shape, so benchmarks and tests can assert which
// kernel a shape actually exercises instead of inferring it from
// timings.
type DispatchInfo struct {
	// Path is "tiled" (packed-panel microkernels) or "streaming" (the
	// row-streaming kernel batch-1 shapes stay on).
	Path string
	// Kernel is the microkernel implementation the tiled path uses on
	// this machine: "avx2" or "portable".
	Kernel string
	// Parallel reports whether the product fans out across goroutines
	// at the current SetParallelism setting.
	Parallel bool
}

// MulDispatch reports the path an m×k · k×n Mul/MulBiasAct takes. It
// mirrors the dispatch gate exactly (minPackRows row threshold,
// ParallelFlopThreshold); a threshold change shows up here and in the
// committed bench report, not silently.
func MulDispatch(m, k, n int) DispatchInfo {
	info := DispatchInfo{Path: "streaming", Kernel: KernelName()}
	if m >= minPackRows && k > 0 && n > 0 {
		info.Path = "tiled"
	}
	info.Parallel = useParallel(m, m*k*n)
	return info
}

// PackedDispatch reports the path a packed product (MulPackedBiasAct,
// grouped rows) takes: always tiled, at any row count.
func PackedDispatch(m, k, n int) DispatchInfo {
	return DispatchInfo{Path: "tiled", Kernel: KernelName(), Parallel: useParallel(m, m*k*n)}
}

// MinPackRows exposes the streaming→tiled row threshold for tests and
// reports.
func MinPackRows() int { return minPackRows }

// KernelName names the microkernel implementation dispatch currently
// selects: "portable" (pure-Go fallback), "avx2" (default bit-exact
// assembly), or — with SetFastMath(true) on capable hardware —
// "avx2-fma" / "avx512f-fma". Benchmark reports record it so baselines
// from different machines and modes are comparable.
func KernelName() string {
	switch {
	case !haveAVX2:
		return "portable"
	case fastMath && haveAVX512:
		return "avx512f-fma"
	case fastMath && haveFMA:
		return "avx2-fma"
	default:
		return "avx2"
	}
}
