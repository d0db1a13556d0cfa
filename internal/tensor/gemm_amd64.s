//go:build amd64 && !purego

#include "textflag.h"

// STEP accumulates one p into the tile: the B row at b0/b1 times the four
// A values at SI, then moves SI to the next p.
#define STEP(b0, b1) \
	VMOVUPD      b0, Y8; \
	VMOVUPD      b1, Y9; \
	VBROADCASTSD (SI), Y10; \
	VBROADCASTSD (SI)(R8*1), Y11; \
	VFMADD231PD  Y8, Y10, Y0; \
	VFMADD231PD  Y9, Y10, Y1; \
	VBROADCASTSD (SI)(R8*2), Y12; \
	VFMADD231PD  Y8, Y11, Y2; \
	VFMADD231PD  Y9, Y11, Y3; \
	VBROADCASTSD (SI)(R9*1), Y13; \
	VFMADD231PD  Y8, Y12, Y4; \
	VFMADD231PD  Y9, Y12, Y5; \
	VFMADD231PD  Y8, Y13, Y6; \
	VFMADD231PD  Y9, Y13, Y7; \
	ADDQ         R10, SI

// func gemmMicroAVX2(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int)
//
// Accumulates one 4×8 micro-tile:
//
//	c[i*ldc + j] += Σ_p a[i*rsa + p*csa] * b[p*ldb + j]
//
// A packed panel pair is the case rsa=1, csa=4, ldb=8; gemmInPlace passes
// the operands' own strides. Register plan: Y0..Y7 hold the tile (row i in
// Y(2i) cols 0-3 and Y(2i+1) cols 4-7), started at +0; Y8/Y9 hold the
// current B row, Y10..Y13 the broadcast A values. Each p (STEP) issues 2 B
// loads, 4 broadcasts and 8 fused multiply-adds, in ascending p; the loop
// runs four p a trip, and the tile is added into c once at the end. R8 and
// R9 hold 1× and 3× the A row stride, R10 the A k stride, R11 and R12 1×
// and 3× the B k stride, all in bytes.
TEXT ·gemmMicroAVX2(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rsa+16(FP), R8
	MOVQ csa+24(FP), R10
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R11
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), DX
	SHLQ $3, R8
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, DX
	LEAQ (R8)(R8*2), R9
	LEAQ (R11)(R11*2), R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tail

loop:
	STEP((BX), 32(BX))
	STEP((BX)(R11*1), 32(BX)(R11*1))
	STEP((BX)(R11*2), 32(BX)(R11*2))
	STEP((BX)(R12*1), 32(BX)(R12*1))
	LEAQ (BX)(R11*4), BX
	DECQ AX
	JNZ  loop

tail:
	ANDQ $3, CX
	JZ   store

tailloop:
	STEP((BX), 32(BX))
	ADDQ R11, BX
	DECQ CX
	JNZ  tailloop

store:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI

	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI

	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI

	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)

	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (bit 27), and AVX (bit 28);
// XGETBV(0) must show the OS saving XMM and YMM state (bits 1 and 2); and
// CPUID.(7,0):EBX must report AVX2 (bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVQ  $1, AX
	XORQ  CX, CX
	CPUID
	MOVL  CX, R8
	ANDL  $(1<<12 | 1<<27 | 1<<28), R8
	CMPL  R8, $(1<<12 | 1<<27 | 1<<28)
	JNE   no

	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no

	MOVQ  $7, AX
	XORQ  CX, CX
	CPUID
	ANDL  $(1<<5), BX
	JZ    no

	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB  $0, ret+0(FP)
	RET
