//go:build !amd64.v3

#include "textflag.h"

// func cpuHasAVX2() bool
// OSXSAVE and AVX (leaf 1), XMM and YMM state enabled by the OS (XCR0), then
// AVX2 (leaf 7; every CPU with AVX answers up to leaf 0xD).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// BX R11 R12 R13 point at four consecutive rows of b, R10 is b's row size in
// bytes, AX the byte offset of the current four columns.
#define LOADB \
	VMOVUPD (BX)(AX*1), Y8   \
	VMOVUPD (R11)(AX*1), Y9  \
	VMOVUPD (R12)(AX*1), Y10 \
	VMOVUPD (R13)(AX*1), Y11

#define BROADCAST4(P, A0, A1, A2, A3) \
	VBROADCASTSD 0(P), A0  \
	VBROADCASTSD 8(P), A1  \
	VBROADCASTSD 16(P), A2 \
	VBROADCASTSD 24(P), A3

// o[j] += ((a0*v0 + a1*v1) + a2*v2) + a3*v3 on four columns: the portable
// kernel's association order, every product and sum rounded (no FMA).
#define ROW(A0, A1, A2, A3, O) \
	VMULPD  Y8, A0, Y12         \
	VMULPD  Y9, A1, Y13         \
	VADDPD  Y13, Y12, Y12       \
	VMULPD  Y10, A2, Y13        \
	VADDPD  Y13, Y12, Y12       \
	VMULPD  Y11, A3, Y13        \
	VADDPD  Y13, Y12, Y12       \
	VADDPD  (O)(AX*1), Y12, Y12 \
	VMOVUPD Y12, (O)(AX*1)

// func panelAVX2(o0, o1, a0, a1, b *float64, cols, groups, ldb int)
// Folds groups*4 rows of b into cols (a multiple of 4) columns of the output
// rows o0 and o1, whose coefficients start at a0 and a1. With o1 nil it is
// the one-row variant, for the row without a partner.
TEXT ·panelAVX2(SB), NOSPLIT, $0-64
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ cols+40(FP), CX
	MOVQ groups+48(FP), DX
	MOVQ ldb+56(FP), R10
	SHLQ $3, CX
	SHLQ $3, R10
	LEAQ (BX)(R10*1), R11
	LEAQ (BX)(R10*2), R12
	LEAQ (R11)(R10*2), R13
group:
	BROADCAST4(R8, Y0, Y1, Y2, Y3)
	XORQ  AX, AX
	TESTQ SI, SI
	JZ    cols1
	BROADCAST4(R9, Y4, Y5, Y6, Y7)
cols2:
	LOADB
	ROW(Y0, Y1, Y2, Y3, DI)
	ROW(Y4, Y5, Y6, Y7, SI)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  cols2
	ADDQ $32, R9
	JMP  next
cols1:
	LOADB
	ROW(Y0, Y1, Y2, Y3, DI)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  cols1
next:
	ADDQ $32, R8
	LEAQ (BX)(R10*4), BX
	LEAQ (R11)(R10*4), R11
	LEAQ (R12)(R10*4), R12
	LEAQ (R13)(R10*4), R13
	DECQ DX
	JNZ  group
	VZEROUPPER
	RET
