package mat

// Cache-blocked, register-tiled GEMM path. The three products (Mul,
// MulTransA, MulTransB) share one microkernel shape: a tile of mr
// destination rows × nr destination columns accumulates over the full k
// depth in registers, reading the B operand from a packed panel buffer
// (nr consecutive destination columns stored contiguously per k step,
// zero-padded at the right edge).
//
// Bit-exactness contract: for every destination element the k terms are
// multiplied and added in ascending k order with individual roundings
// (never fused multiply-add), exactly like the naive kernels in
// parallel.go. Tiling only regroups *independent* destination elements,
// so the tiled, naive, serial and parallel paths all agree bitwise —
// the property PR 3's determinism tests and PR 4's bit-identical resume
// depend on. Mul and MulTransA skip a-operand zeros exactly like their
// naive counterparts; MulTransB, like Dot, never skips.
const (
	// nr is the register tile width: one packed panel covers nr
	// destination columns (two 4-lane AVX2 vectors).
	nr = 8
	// mr is the register tile height in destination rows.
	mr = 4
	// minPackRows is the destination row count below which packing the
	// B operand cannot be amortised and the streaming kernels win
	// (batch-1 action selection stays on the naive path).
	minPackRows = 8
)

// Activation selects the fused epilogue applied while a GEMM result is
// written back (see MulBiasAct).
type Activation uint8

const (
	// ActIdentity stores the raw product (plus bias when given).
	ActIdentity Activation = iota
	// ActReLU stores max(0, v) — NaN and −0 map to +0, matching the
	// standalone nn ReLU layer element-for-element.
	ActReLU
)

// packB packs b into nr-wide column panels: panel p holds destination
// columns [p·nr, p·nr+nr), laid out k-major so the microkernel streams
// it linearly. Columns past b.Cols are zero-padded (the pad lanes
// accumulate only ±0·av terms that never reach the destination).
func packB(b *Matrix) *Matrix {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	pm := GetScratch(1, panels*nr*k)
	packBInto(pm.Data, b)
	return pm
}

// packBInto packs b into bp (length ≥ panels·nr·k), the shared core of
// the scratch packB and the persistent PackedB.
func packBInto(bp []float64, b *Matrix) {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		out := bp[p*nr*k : (p+1)*nr*k]
		for t := 0; t < k; t++ {
			src := b.Data[t*n+j0 : t*n+j0+w]
			dst := out[t*nr : t*nr+nr]
			copy(dst, src)
			for jj := w; jj < nr; jj++ {
				dst[jj] = 0
			}
		}
	}
}

// packBT packs bᵀ into nr-wide panels for MulTransB: panel p holds
// destination columns [p·nr, p·nr+nr), i.e. rows of b, transposed so the
// microkernel streams k-major.
func packBT(b *Matrix) *Matrix {
	n, k := b.Rows, b.Cols // destination has n columns, depth k
	panels := (n + nr - 1) / nr
	pm := GetScratch(1, panels*nr*k)
	bp := pm.Data
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		out := bp[p*nr*k : (p+1)*nr*k]
		for jj := 0; jj < w; jj++ {
			row := b.Data[(j0+jj)*k : (j0+jj+1)*k]
			for t, v := range row {
				out[t*nr+jj] = v
			}
		}
		for jj := w; jj < nr; jj++ {
			for t := 0; t < k; t++ {
				out[t*nr+jj] = 0
			}
		}
	}
	return pm
}

// gemmPackedRange computes destination rows [r0, r1) of dst = a·(packed
// panels) with the fused epilogue. When skip is true, a-operand zeros
// contribute nothing (Mul/MulTransA semantics); otherwise every term is
// accumulated (Dot/MulTransB semantics). When accumulate is true the
// per-element register sum is added to dst with a single addition
// (MulTransAAcc semantics) and bias/act must be nil/ActIdentity.
func gemmPackedRange(dst, a *Matrix, bp []float64, r0, r1 int, skip, accumulate bool, bias []float64, act Activation) {
	k := a.Cols
	n := dst.Cols
	panels := (n + nr - 1) / nr
	i := r0
	if haveAVX2 {
		var acc [mr * nr]float64
		for ; i+mr <= r1; i += mr {
			a0 := &a.Data[i*k]
			a1 := &a.Data[(i+1)*k]
			a2 := &a.Data[(i+2)*k]
			a3 := &a.Data[(i+3)*k]
			for p := 0; p < panels; p++ {
				if skip {
					kern4x8s(k, a0, a1, a2, a3, &bp[p*nr*k], &acc)
				} else {
					kern4x8n(k, a0, a1, a2, a3, &bp[p*nr*k], &acc)
				}
				j0 := p * nr
				w := n - j0
				if w > nr {
					w = nr
				}
				storeTile(dst.Row(i)[j0:j0+w], acc[0:], accumulate, bias, act, j0)
				storeTile(dst.Row(i + 1)[j0:j0+w], acc[nr:], accumulate, bias, act, j0)
				storeTile(dst.Row(i + 2)[j0:j0+w], acc[2*nr:], accumulate, bias, act, j0)
				storeTile(dst.Row(i + 3)[j0:j0+w], acc[3*nr:], accumulate, bias, act, j0)
			}
		}
	}
	for ; i < r1; i++ {
		gemmPackedRow(dst.Row(i), a.Row(i), bp, k, n, skip, accumulate, bias, act)
	}
}

// gemmPackedRowFused computes one destination row against every packed
// panel with a single fused kernel call (all panels in one asm sweep)
// and a single epilogue pass over the row. rowAcc is caller scratch of
// at least ceil(n/nr)*nr elements. Bitwise it equals gemmPackedRow: the
// fused kernel runs the identical per-panel loop, and the epilogue
// applies the same per-element arithmetic in the same order. Batch-1
// pooled selects call this once per row per layer instead of paying
// per-panel call dispatch at small k.
func gemmPackedRowFused(drow, arow, bp, rowAcc []float64, k, n int, skip, accumulate bool, bias []float64, act Activation) {
	panels := (n + nr - 1) / nr
	if haveAVX2 {
		if skip {
			kernRowPanelsS(k, panels, &arow[0], &bp[0], &rowAcc[0])
		} else {
			kernRowPanelsN(k, panels, &arow[0], &bp[0], &rowAcc[0])
		}
	} else {
		var tmp [nr]float64
		for p := 0; p < panels; p++ {
			kernRowGo(arow[:k], bp[p*nr*k:(p+1)*nr*k], &tmp, skip)
			copy(rowAcc[p*nr:p*nr+nr], tmp[:])
		}
	}
	d := drow[:n]
	acc := rowAcc[:n]
	switch {
	case accumulate:
		for j := range d {
			d[j] += acc[j]
		}
	case bias == nil && act == ActIdentity:
		copy(d, acc)
	case bias == nil: // ActReLU
		for j := range d {
			v := acc[j]
			if !(v > 0) {
				v = 0
			}
			d[j] = v
		}
	case act == ActReLU:
		b := bias[:n]
		for j := range d {
			v := acc[j] + b[j]
			if !(v > 0) {
				v = 0
			}
			d[j] = v
		}
	default: // bias, identity
		b := bias[:n]
		for j := range d {
			d[j] = acc[j] + b[j]
		}
	}
}

// gemmPackedRow computes one destination row against every packed
// panel. The epilogue is inlined per tile rather than routed through
// storeTile: batch-1 pooled selects issue millions of 8-wide tiles, and
// the call overhead alone was ~20% of the sweep.
func gemmPackedRow(drow, arow, bp []float64, k, n int, skip, accumulate bool, bias []float64, act Activation) {
	panels := (n + nr - 1) / nr
	var acc [nr]float64
	ap := &arow[0]
	for p := 0; p < panels; p++ {
		if haveAVX2 {
			if skip {
				kern1x8s(k, ap, &bp[p*nr*k], &acc)
			} else {
				kern1x8n(k, ap, &bp[p*nr*k], &acc)
			}
		} else {
			kernRowGo(arow[:k], bp[p*nr*k:(p+1)*nr*k], &acc, skip)
		}
		j0 := p * nr
		w := n - j0
		if w >= nr {
			// Full tile: array pointers drop every bounds check and fix
			// the trip count at nr.
			d := (*[nr]float64)(drow[j0:])
			switch {
			case accumulate:
				for jj := 0; jj < nr; jj++ {
					d[jj] += acc[jj]
				}
			case bias == nil && act == ActIdentity:
				*d = acc
			case bias == nil: // ActReLU
				for jj := 0; jj < nr; jj++ {
					v := acc[jj]
					if !(v > 0) {
						v = 0
					}
					d[jj] = v
				}
			case act == ActReLU:
				b := (*[nr]float64)(bias[j0:])
				for jj := 0; jj < nr; jj++ {
					v := acc[jj] + b[jj]
					if !(v > 0) {
						v = 0
					}
					d[jj] = v
				}
			default: // bias, identity
				b := (*[nr]float64)(bias[j0:])
				for jj := 0; jj < nr; jj++ {
					d[jj] = acc[jj] + b[jj]
				}
			}
			continue
		}
		d := drow[j0 : j0+w]
		switch {
		case accumulate:
			for jj := range d {
				d[jj] += acc[jj]
			}
		case bias == nil && act == ActIdentity:
			copy(d, acc[:len(d)])
		case bias == nil: // ActReLU
			for jj := range d {
				v := acc[jj]
				if !(v > 0) {
					v = 0
				}
				d[jj] = v
			}
		case act == ActReLU:
			b := bias[j0 : j0+w]
			for jj := range d {
				v := acc[jj] + b[jj]
				if !(v > 0) {
					v = 0
				}
				d[jj] = v
			}
		default: // bias, identity
			b := bias[j0 : j0+w]
			for jj := range d {
				d[jj] = acc[jj] + b[jj]
			}
		}
	}
}

// kernRowGo is the portable microkernel: one destination row × one
// packed panel, eight independent accumulator chains, ascending k,
// multiply-then-add per term — bitwise identical to the AVX2 kernels.
func kernRowGo(arow, panel []float64, acc *[nr]float64, skip bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	if skip {
		for t, av := range arow {
			if av == 0 {
				continue
			}
			q := panel[t*nr : t*nr+nr]
			c0 += av * q[0]
			c1 += av * q[1]
			c2 += av * q[2]
			c3 += av * q[3]
			c4 += av * q[4]
			c5 += av * q[5]
			c6 += av * q[6]
			c7 += av * q[7]
		}
	} else {
		for t, av := range arow {
			q := panel[t*nr : t*nr+nr]
			c0 += av * q[0]
			c1 += av * q[1]
			c2 += av * q[2]
			c3 += av * q[3]
			c4 += av * q[4]
			c5 += av * q[5]
			c6 += av * q[6]
			c7 += av * q[7]
		}
	}
	acc[0], acc[1], acc[2], acc[3] = c0, c1, c2, c3
	acc[4], acc[5], acc[6], acc[7] = c4, c5, c6, c7
}

// storeTile writes one microkernel row back into the destination,
// applying the fused epilogue: accumulate (+=), bias broadcast and/or
// activation. drow is the destination slice for columns [j0, j0+w).
func storeTile(drow, acc []float64, accumulate bool, bias []float64, act Activation, j0 int) {
	switch {
	case accumulate:
		for jj := range drow {
			drow[jj] += acc[jj]
		}
	case bias == nil && act == ActIdentity:
		copy(drow, acc[:len(drow)])
	case bias == nil: // ActReLU
		for jj := range drow {
			v := acc[jj]
			if !(v > 0) {
				v = 0
			}
			drow[jj] = v
		}
	case act == ActReLU:
		for jj := range drow {
			v := acc[jj] + bias[j0+jj]
			if !(v > 0) {
				v = 0
			}
			drow[jj] = v
		}
	default: // bias, identity
		for jj := range drow {
			drow[jj] = acc[jj] + bias[j0+jj]
		}
	}
}

// biasActRange applies the bias/activation epilogue to rows [r0, r1) of
// dst in one sweep — the fused tail of the streaming (non-packed) path.
func biasActRange(dst *Matrix, r0, r1 int, bias []float64, act Activation) {
	if bias == nil && act == ActIdentity {
		return
	}
	for i := r0; i < r1; i++ {
		row := dst.Row(i)
		if bias != nil {
			for j := range row {
				row[j] += bias[j]
			}
		}
		if act == ActReLU {
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0
				}
			}
		}
	}
}

// gemmTransAPackedRange computes destination rows [r0, r1) of
// dst = aᵀ·(packed panels): destination row i is column i of a, gathered
// into a contiguous scratch quad so the shared microkernel can stream it.
func gemmTransAPackedRange(dst, a *Matrix, bp []float64, r0, r1 int, accumulate bool) {
	k := a.Rows
	cb := GetScratch(mr, k)
	i := r0
	if haveAVX2 {
		var acc [mr * nr]float64
		n := dst.Cols
		panels := (n + nr - 1) / nr
		for ; i+mr <= r1; i += mr {
			for q := 0; q < mr; q++ {
				a.ColInto(cb.Row(q), i+q)
			}
			a0, a1, a2, a3 := &cb.Data[0], &cb.Data[k], &cb.Data[2*k], &cb.Data[3*k]
			for p := 0; p < panels; p++ {
				kern4x8s(k, a0, a1, a2, a3, &bp[p*nr*k], &acc)
				j0 := p * nr
				w := n - j0
				if w > nr {
					w = nr
				}
				storeTile(dst.Row(i)[j0:j0+w], acc[0:], accumulate, nil, ActIdentity, j0)
				storeTile(dst.Row(i + 1)[j0:j0+w], acc[nr:], accumulate, nil, ActIdentity, j0)
				storeTile(dst.Row(i + 2)[j0:j0+w], acc[2*nr:], accumulate, nil, ActIdentity, j0)
				storeTile(dst.Row(i + 3)[j0:j0+w], acc[3*nr:], accumulate, nil, ActIdentity, j0)
			}
		}
	}
	// Leftover rows (and the whole range without AVX2) one at a time.
	for ; i < r1; i++ {
		col := cb.Row(0)
		a.ColInto(col, i)
		gemmPackedRow(dst.Row(i), col, bp, k, dst.Cols, true, accumulate, nil, ActIdentity)
	}
	PutScratch(cb)
}
