//go:build amd64

package mat

import "os"

// The AVX2 microkernels compute mr×nr (or 1×nr) destination tiles over
// the full k depth with one accumulator register chain per 4-lane column
// group. Each term is a VMULPD followed by a VADDPD — two individually
// rounded operations, never a fused multiply-add — so every lane matches
// the scalar `acc += av*bv` of the naive kernels bit for bit, in the
// same ascending-k order. The *s variants skip a-operand zeros (±0 by
// integer bit test, NaN never skipped), the *n variants accumulate every
// term like Dot.

// haveAVX2 gates the assembly microkernels; the portable kernRowGo path
// (bitwise identical) is used when false. Tests flip it to cover both,
// and TWIG_DISABLE_AVX2 forces the portable path (the CI kernel-fallback
// job runs the bit-exactness suites under it).
var haveAVX2 = cpuHasAVX2() && os.Getenv("TWIG_DISABLE_AVX2") == ""

// cpuHasAVX2 reports AVX2 support with OS-enabled YMM state.
func cpuHasAVX2() bool

//go:noescape
func kern4x8s(k int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64)

//go:noescape
func kern4x8n(k int, a0, a1, a2, a3, panel *float64, acc *[mr * nr]float64)

//go:noescape
func kern1x8s(k int, a0, panel *float64, acc *[nr]float64)

//go:noescape
func kern1x8n(k int, a0, panel *float64, acc *[nr]float64)

//go:noescape
func kernRowPanelsS(k, panels int, a0, panel, acc *float64)

//go:noescape
func kernRowPanelsN(k, panels int, a0, panel, acc *float64)
