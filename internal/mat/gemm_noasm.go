//go:build !amd64

package mat

// Non-amd64 builds use the portable kernRowGo microkernel exclusively;
// it is bitwise identical to the AVX2 path (see gemm_amd64.go).
var haveAVX2 = false

func kern4x8s(k int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kern4x8n(k int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kern1x8s(k int, a0, panel *float64, acc *[nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kern1x8n(k int, a0, panel *float64, acc *[nr]float64) {
	panic("mat: asm kernel on non-amd64")
}

func kernRowPanelsS(k, panels int, a0, panel, acc *float64) {
	panic("mat: asm kernel on non-amd64")
}

func kernRowPanelsN(k, panels int, a0, panel, acc *float64) {
	panic("mat: asm kernel on non-amd64")
}
