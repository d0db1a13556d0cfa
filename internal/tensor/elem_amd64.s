//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA elementwise and reduction kernels. The in-place kernels (axpy,
// scale, add, scaled difference) process 8 doubles per iteration (two YMM
// vectors), then a 4-wide tail, then scalars. The reductions (sum, dot,
// sqdist) run four independent YMM accumulators (16 doubles per iteration)
// to hide FMA latency, fold them horizontally, and finish the sub-vector
// tail in scalar AVX so the whole kernel needs one VZEROUPPER.

// func elemAxpyAVX2(dst, x *float64, n int, a float64)
//
// dst[i] += a·x[i]
TEXT ·elemAxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   axpy_tail4

axpy_loop8:
	VMOVUPD     (SI), Y1
	VMOVUPD     32(SI), Y2
	VFMADD213PD (DI), Y0, Y1    // Y1 = a·x + dst
	VFMADD213PD 32(DI), Y0, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        AX
	JNZ         axpy_loop8

axpy_tail4:
	TESTQ $4, CX
	JZ    axpy_tail1
	VMOVUPD     (SI), Y1
	VFMADD213PD (DI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI

axpy_tail1:
	ANDQ $3, CX
	JZ   axpy_done

axpy_scalar:
	VMOVSD      (SI), X1
	VFMADD213SD (DI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         axpy_scalar

axpy_done:
	VZEROUPPER
	RET

// func elemScaleAVX2(dst *float64, n int, a float64)
//
// dst[i] *= a
TEXT ·elemScaleAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD a+16(FP), Y0

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   scale_tail4

scale_loop8:
	VMULPD  (DI), Y0, Y1
	VMULPD  32(DI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, DI
	DECQ    AX
	JNZ     scale_loop8

scale_tail4:
	TESTQ $4, CX
	JZ    scale_tail1
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI

scale_tail1:
	ANDQ $3, CX
	JZ   scale_done

scale_scalar:
	VMOVSD (DI), X1
	VMULSD X1, X0, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scale_scalar

scale_done:
	VZEROUPPER
	RET

// func elemAddAVX2(dst, x *float64, n int)
//
// dst[i] += x[i]
TEXT ·elemAddAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   add_tail4

add_loop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    AX
	JNZ     add_loop8

add_tail4:
	TESTQ $4, CX
	JZ    add_tail1
	VMOVUPD (SI), Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

add_tail1:
	ANDQ $3, CX
	JZ   add_done

add_scalar:
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    add_scalar

add_done:
	VZEROUPPER
	RET

// func elemAddScaledDiffAVX2(dst, x, y *float64, n int, a float64)
//
// dst[i] += (x[i] - y[i])·a, with a separate subtract, multiply and add
// (no FMA), so each element rounds three times as the unfused Go expression
// does.
TEXT ·elemAddScaledDiffAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y0

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   asd_tail4

asd_loop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VSUBPD  (DX), Y1, Y1
	VSUBPD  32(DX), Y2, Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    AX
	JNZ     asd_loop8

asd_tail4:
	TESTQ $4, CX
	JZ    asd_tail1
	VMOVUPD (SI), Y1
	VSUBPD  (DX), Y1, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

asd_tail1:
	ANDQ $3, CX
	JZ   asd_done

asd_scalar:
	VMOVSD (SI), X1
	VSUBSD (DX), X1, X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    asd_scalar

asd_done:
	VZEROUPPER
	RET

// func elemSumAVX2(x *float64, n int) float64
//
// Σ x[i], four parallel accumulators.
TEXT ·elemSumAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, AX
	SHRQ $4, AX
	JZ   sum_tail4

sum_loop16:
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VADDPD 64(SI), Y2, Y2
	VADDPD 96(SI), Y3, Y3
	ADDQ   $128, SI
	DECQ   AX
	JNZ    sum_loop16

sum_tail4:
	MOVQ CX, AX
	ANDQ $12, AX
	JZ   sum_reduce

sum_tail4_loop:
	VADDPD (SI), Y0, Y0
	ADDQ   $32, SI
	SUBQ   $4, AX
	JNZ    sum_tail4_loop

sum_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

	ANDQ $3, CX
	JZ   sum_done

sum_scalar:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    sum_scalar

sum_done:
	VMOVSD X0, ret+16(FP)
	VZEROUPPER
	RET

// func elemDotAVX2(x, y *float64, n int) float64
//
// Σ x[i]·y[i], four FMA accumulators.
TEXT ·elemDotAVX2(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DX
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, AX
	SHRQ $4, AX
	JZ   dot_tail4

dot_loop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DX), Y4, Y0
	VFMADD231PD 32(DX), Y5, Y1
	VFMADD231PD 64(DX), Y6, Y2
	VFMADD231PD 96(DX), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        AX
	JNZ         dot_loop16

dot_tail4:
	MOVQ CX, AX
	ANDQ $12, AX
	JZ   dot_reduce

dot_tail4_loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DX), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $4, AX
	JNZ         dot_tail4_loop

dot_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

	ANDQ $3, CX
	JZ   dot_done

dot_scalar:
	VMOVSD      (SI), X4
	VFMADD231SD (DX), X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNZ         dot_scalar

dot_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func elemSqdistAVX2(x, y *float64, n int) float64
//
// Σ (x[i]−y[i])², four FMA accumulators.
TEXT ·elemSqdistAVX2(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DX
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, AX
	SHRQ $4, AX
	JZ   sq_tail4

sq_loop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VSUBPD      (DX), Y4, Y4
	VSUBPD      32(DX), Y5, Y5
	VSUBPD      64(DX), Y6, Y6
	VSUBPD      96(DX), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DX
	DECQ        AX
	JNZ         sq_loop16

sq_tail4:
	MOVQ CX, AX
	ANDQ $12, AX
	JZ   sq_reduce

sq_tail4_loop:
	VMOVUPD     (SI), Y4
	VSUBPD      (DX), Y4, Y4
	VFMADD231PD Y4, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $4, AX
	JNZ         sq_tail4_loop

sq_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

	ANDQ $3, CX
	JZ   sq_done

sq_scalar:
	VMOVSD      (SI), X4
	VSUBSD      (DX), X4, X4
	VFMADD231SD X4, X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNZ         sq_scalar

sq_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
