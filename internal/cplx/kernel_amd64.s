#include "textflag.h"

// Both kernels reproduce Go's complex128 arithmetic bit for bit. Go on amd64
// multiplies complex numbers as (ar·br − ai·bi) + (ar·bi + ai·br)i with every
// product rounded before its add (it never fuses), and VADDSUBPD does exactly
// that: one subtract in the real lane, one add in the imaginary lane, over
// products VMULPD has already rounded. Operands differ from Go's order only
// where IEEE 754 makes the result the same: a·b = b·a, a·(−b) = (−a)·b and
// p + q = q + p.

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

// func mulRowPairsAVX2(dst, w, x []complex128)
//
// One pass per row pair: Y0 holds the running sums of rows 2p and 2p+1 as
// [re0, im0, re1, im1], and column c adds w[2p][c]·x[c] and w[2p+1][c]·x[c]
// in column order, as DotInto does.
TEXT ·mulRowPairsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $1, CX                        // row pairs
	MOVQ w_base+24(FP), SI             // first row of the pair
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX              // columns
	MOVQ BX, R8
	SHLQ $4, R8                        // row stride in bytes
	TESTQ CX, CX
	JZ   done

pair:
	LEAQ   (SI)(R8*1), R9              // second row of the pair
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX                      // column offset in bytes
	MOVQ   BX, R10                     // columns left
	TESTQ  R10, R10
	JZ     store

col:
	VMOVUPD      (SI)(AX*1), X1
	VINSERTF128  $1, (R9)(AX*1), Y1, Y1 // [w0r, w0i, w1r, w1i]
	VBROADCASTSD (DX)(AX*1), Y2         // xr in every lane
	VBROADCASTSD 8(DX)(AX*1), Y3        // xi in every lane
	VPERMILPD    $5, Y1, Y4             // [w0i, w0r, w1i, w1r]
	VMULPD       Y2, Y1, Y1             // [w0r·xr, w0i·xr, …]
	VMULPD       Y3, Y4, Y4             // [w0i·xi, w0r·xi, …]
	VADDSUBPD    Y4, Y1, Y1             // [w0r·xr − w0i·xi, w0i·xr + w0r·xi, …]
	VADDPD       Y1, Y0, Y0
	ADDQ         $16, AX
	DECQ         R10
	JNZ          col

store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R9)(R8*1), SI             // the next pair starts after the second row
	DECQ    CX
	JNZ     pair

done:
	VZEROUPPER
	RET

// func addScaledConjAVX2(dst, x []complex128, re, im complex128)
//
// re = (ar, −ar) and im = (−ai, ai) are a's parts laid out per lane, so two
// multiplies and one VADDSUBPD give a·conj(x) = (ar·xr − ai·(−xi)) +
// (ar·(−xi) + ai·xr)i for two elements at a time.
TEXT ·addScaledConjAVX2(SB), NOSPLIT, $0-80
	MOVQ           dst_base+0(FP), DI
	MOVQ           dst_len+8(FP), CX
	SHRQ           $1, CX              // element pairs
	MOVQ           x_base+24(FP), SI
	VBROADCASTF128 re+48(FP), Y6       // [ar, −ar, ar, −ar]
	VBROADCASTF128 im+64(FP), Y7       // [−ai, ai, −ai, ai]
	TESTQ          CX, CX
	JZ             done

loop:
	VMOVUPD   (SI), Y1                 // [x0r, x0i, x1r, x1i]
	VPERMILPD $5, Y1, Y2               // [x0i, x0r, x1i, x1r]
	VMULPD    Y6, Y1, Y1               // [x0r·ar, x0i·−ar, …]
	VMULPD    Y7, Y2, Y2               // [x0i·−ai, x0r·ai, …]
	VADDSUBPD Y2, Y1, Y1               // [x0r·ar − x0i·−ai, x0i·−ar + x0r·ai, …]
	VADDPD    (DI), Y1, Y1
	VMOVUPD   Y1, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	RET
