//go:build amd64

#include "textflag.h"

// AVX2 GEMM microkernels. Panel layout: nr=8 destination columns per
// panel, k-major — the t-th step reads panel[8t : 8t+8] as two 256-bit
// vectors. Accumulators live in Y4..Y11 (one pair per destination row);
// each update is VMULPD then VADDPD with the accumulator as the first
// addend, matching the rounding and NaN-propagation order of the scalar
// `acc = acc + av*bv`. Zero-skip tests the a element's bits shifted left
// by one: zero iff the value is ±0, never for NaN.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8 // OSXSAVE | AVX
	CMPL R8, $(1<<27 | 1<<28)
	JNE  novx
	XORL CX, CX
	XGETBV                    // XCR0 → DX:AX
	ANDL $6, AX
	CMPL AX, $6               // XMM and YMM state OS-enabled
	JNE  novx
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX         // AVX2
	JZ   novx
	MOVB $1, ret+0(FP)
	RET
novx:
	MOVB $0, ret+0(FP)
	RET

// func kern4x8s(k int, a0, a1, a2, a3, panel *float64, acc *[32]float64)
TEXT ·kern4x8s(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ panel+40(FP), SI
	MOVQ acc+48(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	TESTQ CX, CX
	JZ   done4s
loop4s:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	MOVQ (R8), AX
	ADDQ AX, AX
	JZ   r1s
	VBROADCASTSD (R8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
r1s:
	MOVQ (R9), AX
	ADDQ AX, AX
	JZ   r2s
	VBROADCASTSD (R9), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
r2s:
	MOVQ (R10), AX
	ADDQ AX, AX
	JZ   r3s
	VBROADCASTSD (R10), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
r3s:
	MOVQ (R11), AX
	ADDQ AX, AX
	JZ   nexts
	VBROADCASTSD (R11), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
nexts:
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $64, SI
	DECQ CX
	JNZ  loop4s
done4s:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET

// func kern4x8n(k int, a0, a1, a2, a3, panel *float64, acc *[32]float64)
TEXT ·kern4x8n(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ panel+40(FP), SI
	MOVQ acc+48(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	TESTQ CX, CX
	JZ   done4n
loop4n:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VBROADCASTSD (R8), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
	VBROADCASTSD (R9), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD (R10), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
	VBROADCASTSD (R11), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $64, SI
	DECQ CX
	JNZ  loop4n
done4n:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET

// func kern1x8s(k int, a0, panel *float64, acc *[8]float64)
TEXT ·kern1x8s(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ panel+16(FP), SI
	MOVQ acc+24(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	TESTQ CX, CX
	JZ   done1s
loop1s:
	MOVQ (R8), AX
	ADDQ AX, AX
	JZ   next1s
	VBROADCASTSD (R8), Y2
	VMULPD (SI), Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD 32(SI), Y2, Y3
	VADDPD Y3, Y5, Y5
next1s:
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  loop1s
done1s:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VZEROUPPER
	RET

// func kernRowPanelsS(k, panels int, a0, panel, acc *float64)
//
// Fused row sweep: `panels` consecutive nr-wide panels of one packed
// operand against one a-row, accumulators flushed to acc[8p : 8p+8] per
// panel. Each panel runs exactly the kern1x8s loop (same zero-skip,
// same VMULPD/VADDPD order), so the result is bitwise kern1x8s called
// panel by panel — minus the per-panel call overhead, which dominates
// batch-1 pooled selects at small k.
TEXT ·kernRowPanelsS(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), BX
	MOVQ panels+8(FP), R9
	MOVQ a0+16(FP), R10
	MOVQ panel+24(FP), SI
	MOVQ acc+32(FP), DI
	TESTQ R9, R9
	JZ   doneRS
panelRS:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ R10, R8
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   flushRS
loopRS:
	MOVQ (R8), AX
	ADDQ AX, AX
	JZ   nextRS
	VBROADCASTSD (R8), Y2
	VMULPD (SI), Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD 32(SI), Y2, Y3
	VADDPD Y3, Y5, Y5
nextRS:
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  loopRS
flushRS:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, DI
	DECQ R9
	JNZ  panelRS
doneRS:
	VZEROUPPER
	RET

// func kernRowPanelsN(k, panels int, a0, panel, acc *float64)
//
// The no-skip twin of kernRowPanelsS (kern1x8n per panel).
TEXT ·kernRowPanelsN(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), BX
	MOVQ panels+8(FP), R9
	MOVQ a0+16(FP), R10
	MOVQ panel+24(FP), SI
	MOVQ acc+32(FP), DI
	TESTQ R9, R9
	JZ   doneRN
panelRN:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ R10, R8
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   flushRN
loopRN:
	VBROADCASTSD (R8), Y2
	VMULPD (SI), Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD 32(SI), Y2, Y3
	VADDPD Y3, Y5, Y5
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  loopRN
flushRN:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, DI
	DECQ R9
	JNZ  panelRN
doneRN:
	VZEROUPPER
	RET

// func kern1x8n(k int, a0, panel *float64, acc *[8]float64)
TEXT ·kern1x8n(SB), NOSPLIT, $0-32
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ panel+16(FP), SI
	MOVQ acc+24(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	TESTQ CX, CX
	JZ   done1n
loop1n:
	VBROADCASTSD (R8), Y2
	VMULPD (SI), Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD 32(SI), Y2, Y3
	VADDPD Y3, Y5, Y5
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  loop1n
done1n:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VZEROUPPER
	RET
