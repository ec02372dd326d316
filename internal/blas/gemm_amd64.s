#include "textflag.h"

// AVX2 kernels behind gemm_amd64.go. Every update is a VMULPD followed by
// a VADDPD, so each element rounds exactly as the portable Go loops do;
// no fused multiply-add appears anywhere. Operand order follows the Go
// compiler's scalar code (b·av then prod+c for NN/TN, a·b then s+prod for
// NT), which also keeps the NaN a two-NaN sum propagates. Only
// VEX-encoded instructions are used, scalar tails included, and every
// kernel ends with VZEROUPPER, so no SSE/AVX transition penalty follows
// the call.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func axpyAVX2(n int, av float64, x, y *float64)
//
// y[j] = x[j]·av + y[j] for j < n.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	VBROADCASTSD av+8(FP), Y0
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI

axpy8:
	CMPQ    CX, $8
	JLT     axpy1
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy1:
	TESTQ  CX, CX
	JZ     axpydone
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// NNSTEP folds row r of a 4×8 tile: broadcast apk[p·4+r], multiply it
// into the two B vectors Y8/Y9 and add the products to that row's
// accumulators.
#define NNSTEP(off, acc0, acc1) \
	VBROADCASTSD off(AX), Y10; \
	VMULPD       Y10, Y8, Y11; \
	VMULPD       Y10, Y9, Y12; \
	VADDPD       acc0, Y11, acc0; \
	VADDPD       acc1, Y12, acc1

// func nnTile(k int, apk, b *float64, ldb int, c *float64, ldc, n8 int)
//
// For each 8-column tile j0 < n8 of the 4-row strip at c (row stride ldc)
// and each p < k in order: c[r][j] = b[p][j]·apk[p·4+r] + c[r][j], with b
// advancing ldb elements per p. apk holds alpha·op(A) packed p-major,
// four rows per p, none of them zero. Requires k ≥ 1 and n8 a positive
// multiple of 8.
TEXT ·nnTile(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ apk+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	MOVQ n8+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (DI)(R9*1), R11
	LEAQ (DI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	SHLQ $5, CX
	ADDQ SI, CX          // CX = end of apk
	XORQ BX, BX          // BX = byte offset of the column tile

nntile:
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD (R11)(BX*1), Y2
	VMOVUPD 32(R11)(BX*1), Y3
	VMOVUPD (R12)(BX*1), Y4
	VMOVUPD 32(R12)(BX*1), Y5
	VMOVUPD (R13)(BX*1), Y6
	VMOVUPD 32(R13)(BX*1), Y7
	MOVQ    SI, AX
	LEAQ    (DX)(BX*1), R9

nnp:
	VMOVUPD (R9), Y8
	VMOVUPD 32(R9), Y9
	NNSTEP(0, Y0, Y1)
	NNSTEP(8, Y2, Y3)
	NNSTEP(16, Y4, Y5)
	NNSTEP(24, Y6, Y7)
	ADDQ    $32, AX
	ADDQ    R8, R9
	CMPQ    AX, CX
	JNE     nnp

	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, (R11)(BX*1)
	VMOVUPD Y3, 32(R11)(BX*1)
	VMOVUPD Y4, (R12)(BX*1)
	VMOVUPD Y5, 32(R12)(BX*1)
	VMOVUPD Y6, (R13)(BX*1)
	VMOVUPD Y7, 32(R13)(BX*1)
	ADDQ    $64, BX
	SUBQ    $8, R10
	JNZ     nntile
	VZEROUPPER
	RET

// NTSTEP folds row r of a 4×8 dot-product tile: broadcast a[r][p],
// multiply the two packed B vectors Y8/Y9 into it and add the products to
// that row's accumulators.
#define NTSTEP(row, acc0, acc1) \
	VBROADCASTSD (row)(BX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, acc0, acc0; \
	VADDPD       Y12, acc1, acc1

// func ntTile(k int, a *float64, lda int, panel, acc *float64)
//
// For the 4 rows of a (row stride lda) and each p < k in order:
// acc[r·8+jj] = acc[r·8+jj] + a[r][p]·panel[p·8+jj]. panel holds 8 rows
// of B packed p-major. Requires k ≥ 1.
TEXT ·ntTile(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ panel+24(FP), DX
	MOVQ acc+32(FP), DI
	SHLQ $3, R8
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    BX, BX       // BX = byte offset of p in a's rows

ntp:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	NTSTEP(SI, Y0, Y1)
	NTSTEP(R9, Y2, Y3)
	NTSTEP(R10, Y4, Y5)
	NTSTEP(R11, Y6, Y7)
	ADDQ    $64, DX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     ntp

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET
