package mat

import (
	"math/rand"
	"testing"
)

// The grouped/packed path's contract is the same as the tiled one:
// bitwise equality with the per-agent MulBiasAct calls it replaces, at
// every kernel and fan-out. These tests are the mat-layer half of the
// PR 8 golden differential — the bdq pool tests build on them.

func TestMulPackedBiasActMatchesMulBiasAct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 22, 512},  // batch-1 select: streaming per-agent, packed pooled
		{3, 22, 512},  // below minPackRows, ragged tile edge
		{8, 512, 256}, // at the gate
		{64, 256, 128},
		{5, 128, 18}, // ragged n
		{1, 0, 7},    // degenerate depth
		{4, 7, 0},    // degenerate width
	}
	for _, sh := range shapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		bias := make([]float64, sh.n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		fuzzFill(bias, rng)

		for _, act := range []Activation{ActIdentity, ActReLU} {
			want := New(sh.m, sh.n)
			MulBiasAct(want, a, b, bias, act)
			withKernels(t, func(kernel string) {
				withParallelism(t, func(par int) {
					pb := PackB(b)
					got := New(sh.m, sh.n)
					fuzzFill(got.Data, rng)
					MulPackedBiasAct(got, a, pb, bias, act)
					requireBitsEqual(t, "MulPackedBiasAct/"+kernel, got, want)

					// RepackFrom reuses the buffer and stays identical.
					pb.RepackFrom(b)
					MulPackedBiasAct(got, a, pb, bias, act)
					requireBitsEqual(t, "RepackFrom/"+kernel, got, want)
				})
			})
		}
	}
}

func TestMulGroupedBiasActMatchesPerAgent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct{ groups, k, n int }{
		{36, 22, 512}, // fleet batch-1 select, S=36
		{8, 512, 256}, // trunk second layer
		{5, 128, 18},  // ragged n
		{2, 0, 9},     // degenerate depth
		{2, 9, 0},     // degenerate width
	}
	for _, tc := range cases {
		a := New(tc.groups, tc.k)
		fuzzFill(a.Data, rng)
		groups := make([]Group, tc.groups)
		bs := make([]*Matrix, tc.groups)
		for g := range groups {
			bs[g] = New(tc.k, tc.n)
			fuzzFill(bs[g].Data, rng)
			bias := make([]float64, tc.n)
			fuzzFill(bias, rng)
			groups[g] = Group{Packed: PackB(bs[g]), Bias: bias}
		}

		for _, act := range []Activation{ActIdentity, ActReLU} {
			// Reference: one MulBiasAct per row, exactly the per-agent loop.
			want := New(a.Rows, tc.n)
			for g := range groups {
				MulBiasAct(want.RowsView(g, g+1), a.RowsView(g, g+1), bs[g], groups[g].Bias, act)
			}
			withKernels(t, func(kernel string) {
				withParallelism(t, func(par int) {
					got := New(a.Rows, tc.n)
					fuzzFill(got.Data, rng)
					MulGroupedBiasAct(got, a, groups, act)
					requireBitsEqual(t, "grouped-packed/"+kernel, got, want)
				})
			})
		}
	}
}

// TestMulDispatchBenchShapes pins the execution path of every shape the
// committed bench baselines record, so a future threshold change cannot
// silently move gemm/mul_1x22x512 off the streaming path (or the
// batched shapes off the tiled path) without this test flagging it.
func TestMulDispatchBenchShapes(t *testing.T) {
	cases := []struct {
		m, k, n int
		path    string
	}{
		{1, 22, 512, "streaming"}, // batch-1 select — below minPackRows
		{64, 22, 512, "tiled"},
		{64, 512, 256, "tiled"},
		{64, 256, 128, "tiled"},
		{64, 128, 18, "tiled"},
		{minPackRows - 1, 64, 64, "streaming"},
		{minPackRows, 64, 64, "tiled"},
		{8, 0, 64, "streaming"}, // degenerate depth never packs
		{8, 64, 0, "streaming"},
	}
	for _, tc := range cases {
		info := MulDispatch(tc.m, tc.k, tc.n)
		if info.Path != tc.path {
			t.Errorf("MulDispatch(%d,%d,%d).Path = %q, want %q", tc.m, tc.k, tc.n, info.Path, tc.path)
		}
		if info.Kernel != KernelName() {
			t.Errorf("MulDispatch(%d,%d,%d).Kernel = %q, want %q", tc.m, tc.k, tc.n, info.Kernel, KernelName())
		}
	}
	// The packed path runs tiled at every row count — that is the point.
	if got := PackedDispatch(1, 22, 512); got.Path != "tiled" {
		t.Errorf("PackedDispatch(1,22,512).Path = %q, want tiled", got.Path)
	}
	if KernelName() != "avx2" && KernelName() != "portable" {
		t.Errorf("KernelName() = %q, want avx2 or portable", KernelName())
	}
	if MinPackRows() != minPackRows {
		t.Errorf("MinPackRows() = %d, want %d", MinPackRows(), minPackRows)
	}
}

// TestDispatchParallelGate pins the parallel fan-out decision to the
// actual gate at a non-default parallelism.
func TestDispatchParallelGate(t *testing.T) {
	saved := Parallelism()
	defer SetParallelism(saved)
	SetParallelism(8)
	if MulDispatch(64, 512, 256).Parallel != useParallel(64, 64*512*256) {
		t.Error("MulDispatch parallel flag disagrees with useParallel")
	}
	SetParallelism(1)
	if MulDispatch(64, 512, 256).Parallel {
		t.Error("MulDispatch reports parallel at fan-out 1")
	}
}

func TestRowsView(t *testing.T) {
	m := New(6, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	v := m.RowsView(2, 5)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatalf("RowsView shape %dx%d", v.Rows, v.Cols)
	}
	v.Set(0, 0, -1)
	if m.At(2, 0) != -1 {
		t.Error("RowsView does not share storage")
	}
	f := FromSlice(2, 3, m.Data[:6])
	f.Set(1, 2, -2)
	if m.At(1, 2) != -2 {
		t.Error("FromSlice does not share storage")
	}
}

// TestKernelNameProvenance pins the dispatch strings for both kernel
// selections.
func TestKernelNameProvenance(t *testing.T) {
	saved := haveAVX2
	defer func() { haveAVX2 = saved }()
	for avx2, want := range map[bool]string{false: "portable", true: "avx2"} {
		haveAVX2 = avx2
		if got := KernelName(); got != want || FastMath() {
			t.Errorf("avx2=%v: KernelName = %q, FastMath = %v; want %q, false", avx2, got, FastMath(), want)
		}
	}
}

// TestCPUFeaturesString pins the provenance string shape.
func TestCPUFeaturesString(t *testing.T) {
	saved := haveAVX2
	defer func() { haveAVX2 = saved }()
	haveAVX2 = true
	if got := CPUFeatures(); got != "avx2" {
		t.Errorf("CPUFeatures = %q, want avx2", got)
	}
	haveAVX2 = false
	if got := CPUFeatures(); got != "none" {
		t.Errorf("CPUFeatures = %q, want none", got)
	}
}
