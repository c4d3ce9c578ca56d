#include "textflag.h"

// SSE2 row kernels for kernels_amd64.go. Each output takes the Go
// reference's operations in its order (see kernels.go): packed lanes
// compute independent elements, and no instruction fuses a multiply with
// an add. Loads and stores are unaligned (MOVUPD).

// func axpyRowsSSE2(dst []float64, ds int, x []float64, xs int, a []float64, n int, from []int)
TEXT ·axpyRowsSSE2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ ds+24(FP), R8
	SHLQ $3, R8
	MOVQ x_base+32(FP), SI
	MOVQ xs+56(FP), R9
	SHLQ $3, R9
	MOVQ a_base+64(FP), BX
	MOVQ a_len+72(FP), CX
	MOVQ n+88(FP), DX
	MOVQ from_base+96(FP), R10
	XORQ R11, R11 // r
	XORPD X7, X7

axrow:
	CMPQ R11, CX
	JGE  axdone
	MOVSD   (BX)(R11*8), X0
	UCOMISD X7, X0
	JNE     axlive
	JPS     axlive // NaN is not zero
	JMP     axnext

axlive:
	UNPCKLPD X0, X0 // a[r] in both lanes
	XORQ     AX, AX
	TESTQ    R10, R10
	JZ       axfrom
	MOVQ     (R10)(R11*8), AX

axfrom:
	LEAQ (DI)(AX*8), R12 // &dst row[f]
	LEAQ (SI)(AX*8), R13 // &x row[f]
	NEGQ AX
	ADDQ DX, AX          // n - f elements

axloop8:
	CMPQ   AX, $8
	JLT    axloop4
	MOVUPD (R13), X1
	MOVUPD 16(R13), X2
	MOVUPD 32(R13), X3
	MOVUPD 48(R13), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD (R12), X8
	MOVUPD 16(R12), X9
	MOVUPD 32(R12), X10
	MOVUPD 48(R12), X11
	ADDPD  X1, X8
	ADDPD  X2, X9
	ADDPD  X3, X10
	ADDPD  X4, X11
	MOVUPD X8, (R12)
	MOVUPD X9, 16(R12)
	MOVUPD X10, 32(R12)
	MOVUPD X11, 48(R12)
	ADDQ   $64, R12
	ADDQ   $64, R13
	SUBQ   $8, AX
	JMP    axloop8

axloop4:
	CMPQ   AX, $4
	JLT    axtail
	MOVUPD (R13), X1
	MOVUPD 16(R13), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (R12), X8
	MOVUPD 16(R12), X9
	ADDPD  X1, X8
	ADDPD  X2, X9
	MOVUPD X8, (R12)
	MOVUPD X9, 16(R12)
	ADDQ   $32, R12
	ADDQ   $32, R13
	SUBQ   $4, AX

axtail:
	TESTQ AX, AX
	JZ    axnext
	MOVSD (R13), X1
	MULSD X0, X1
	MOVSD (R12), X8
	ADDSD X1, X8
	MOVSD X8, (R12)
	ADDQ  $8, R12
	ADDQ  $8, R13
	DECQ  AX
	JMP   axtail

axnext:
	INCQ R11
	ADDQ R8, DI
	ADDQ R9, SI
	JMP  axrow

axdone:
	RET

// func dotRowsSSE2(dst, a, b []float64, n int, from []int)
//
// Rows j and j+1 of b share each pass over a. X0:X1 hold row j's four
// partial sums and X2:X3 row j+1's. A row whose from is smaller first
// runs alone up to the other's; from being a multiple of 4 keeps every
// term in its lane.
TEXT ·dotRowsSSE2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ n+72(FP), DX
	MOVQ DX, R8
	SHLQ $3, R8 // row stride in bytes
	MOVQ DX, R9
	ANDQ $-4, R9 // n rounded down to a multiple of 4
	MOVQ from_base+80(FP), R10
	XORQ R11, R11 // j

dtpair:
	CMPQ  R11, CX
	JGE   dtdone
	LEAQ  (BX)(R8*1), AX // row j+1
	XORQ  R12, R12       // from[j]
	XORQ  R13, R13       // from[j+1]
	TESTQ R10, R10
	JZ    dtzero
	MOVQ  (R10)(R11*8), R12
	MOVQ  8(R10)(R11*8), R13

dtzero:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	CMPQ  R12, R13
	JGE   dtpre1

dtpre0:
	MOVUPD (SI)(R12*8), X4
	MOVUPD 16(SI)(R12*8), X5
	MOVUPD (BX)(R12*8), X6
	MOVUPD 16(BX)(R12*8), X7
	MULPD  X4, X6
	MULPD  X5, X7
	ADDPD  X6, X0
	ADDPD  X7, X1
	ADDQ   $4, R12
	CMPQ   R12, R13
	JLT    dtpre0
	JMP    dtjoint

dtpre1:
	CMPQ   R13, R12
	JGE    dtjoint
	MOVUPD (SI)(R13*8), X4
	MOVUPD 16(SI)(R13*8), X5
	MOVUPD (AX)(R13*8), X8
	MOVUPD 16(AX)(R13*8), X9
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X8, X2
	ADDPD  X9, X3
	ADDQ   $4, R13
	JMP    dtpre1

dtjoint:
	CMPQ   R12, R9
	JGE    dtsum
	MOVUPD (SI)(R12*8), X4
	MOVUPD 16(SI)(R12*8), X5
	MOVUPD (BX)(R12*8), X6
	MOVUPD 16(BX)(R12*8), X7
	MOVUPD (AX)(R12*8), X8
	MOVUPD 16(AX)(R12*8), X9
	MULPD  X4, X6
	MULPD  X5, X7
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X6, X0
	ADDPD  X7, X1
	ADDPD  X8, X2
	ADDPD  X9, X3
	ADDQ   $4, R12
	JMP    dtjoint

dtsum:
	// ((s0+s1)+s2)+s3 for each row.
	MOVAPD   X0, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	ADDSD    X1, X0
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	MOVAPD   X2, X5
	UNPCKHPD X5, X5
	ADDSD    X5, X2
	ADDSD    X3, X2
	UNPCKHPD X3, X3
	ADDSD    X3, X2
	MOVQ     R9, R12

dttail:
	CMPQ  R12, DX
	JGE   dtstore
	MOVSD (SI)(R12*8), X4
	MOVSD (BX)(R12*8), X6
	MOVSD (AX)(R12*8), X8
	MULSD X4, X6
	MULSD X4, X8
	ADDSD X6, X0
	ADDSD X8, X2
	INCQ  R12
	JMP   dttail

dtstore:
	MOVSD (DI)(R11*8), X4
	ADDSD X0, X4
	MOVSD X4, (DI)(R11*8)
	MOVSD 8(DI)(R11*8), X5
	ADDSD X2, X5
	MOVSD X5, 8(DI)(R11*8)
	ADDQ  $2, R11
	LEAQ  (AX)(R8*1), BX // row j+2
	JMP   dtpair

dtdone:
	RET

// func adamUpdateSSE2(pv, pg, m, v []float64, k adamCoef)
TEXT ·adamUpdateSSE2(SB), NOSPLIT, $0-168
	MOVQ     pv_base+0(FP), DI
	MOVQ     pg_base+24(FP), SI
	MOVQ     pg_len+32(FP), CX
	MOVQ     m_base+48(FP), R8
	MOVQ     v_base+72(FP), R9
	MOVSD    k_b1+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD    k_c1+104(FP), X9
	UNPCKLPD X9, X9
	MOVSD    k_b2+112(FP), X10
	UNPCKLPD X10, X10
	MOVSD    k_c2+120(FP), X11
	UNPCKLPD X11, X11
	MOVSD    k_lrT+128(FP), X12
	UNPCKLPD X12, X12
	MOVSD    k_rbc2+136(FP), X13
	UNPCKLPD X13, X13
	MOVSD    k_eps+144(FP), X14
	UNPCKLPD X14, X14
	MOVSD    k_lo+152(FP), X6
	UNPCKLPD X6, X6
	MOVSD    k_hi+160(FP), X7
	UNPCKLPD X7, X7
	XORQ     AX, AX // i

adpair:
	LEAQ   2(AX), DX
	CMPQ   DX, CX
	JGT    adtail
	MOVUPD (SI)(AX*8), X0 // g
	MOVAPD X6, X1
	MAXPD  X0, X1         // lo > g ? lo : g
	MOVAPD X7, X0
	MINPD  X1, X0         // hi < g ? hi : g
	MOVUPD (R8)(AX*8), X1
	MULPD  X8, X1
	MOVAPD X9, X2
	MULPD  X0, X2
	ADDPD  X2, X1         // mi = b1*m + c1*g
	MOVUPD X1, (R8)(AX*8)
	MOVUPD (R9)(AX*8), X3
	MULPD  X10, X3
	MOVAPD X11, X4
	MULPD  X0, X4
	MULPD  X0, X4
	ADDPD  X4, X3         // vi = b2*v + (c2*g)*g
	MOVUPD X3, (R9)(AX*8)
	SQRTPD X3, X5
	MULPD  X13, X5
	ADDPD  X14, X5        // sqrt(vi)*rbc2 + eps
	MULPD  X12, X1
	DIVPD  X5, X1         // lrT*mi / (sqrt(vi)*rbc2 + eps)
	MOVUPD (DI)(AX*8), X2
	SUBPD  X1, X2
	MOVUPD X2, (DI)(AX*8)
	XORPD  X4, X4
	MOVUPD X4, (SI)(AX*8)
	MOVQ   DX, AX
	JMP    adpair

adtail:
	CMPQ   AX, CX
	JGE    addone
	MOVSD  (SI)(AX*8), X0
	MOVAPD X6, X1
	MAXSD  X0, X1
	MOVAPD X7, X0
	MINSD  X1, X0
	MOVSD  (R8)(AX*8), X1
	MULSD  X8, X1
	MOVAPD X9, X2
	MULSD  X0, X2
	ADDSD  X2, X1
	MOVSD  X1, (R8)(AX*8)
	MOVSD  (R9)(AX*8), X3
	MULSD  X10, X3
	MOVAPD X11, X4
	MULSD  X0, X4
	MULSD  X0, X4
	ADDSD  X4, X3
	MOVSD  X3, (R9)(AX*8)
	SQRTSD X3, X5
	MULSD  X13, X5
	ADDSD  X14, X5
	MULSD  X12, X1
	DIVSD  X5, X1
	MOVSD  (DI)(AX*8), X2
	SUBSD  X1, X2
	MOVSD  X2, (DI)(AX*8)
	XORPD  X4, X4
	MOVSD  X4, (SI)(AX*8)

addone:
	RET
