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

// func addScaledConjBatchAVX2(dst, a, x []complex128)
//
// dst[c] += Σ_k a[k]·conj(x[k·n+c]) with n = len(dst), k in order: each
// block of columns holds its running sums in registers across the batch.
// Per sample, Y6 = (ar, −ar) and Y7 = (−ai, ai) per lane, so two
// multiplies and one VADDSUBPD give a·conj(x) = (ar·xr − ai·(−xi)) +
// (ar·(−xi) + ai·xr)i for two columns at a time, as Go computes it.
// Blocks are 8 columns (Y0–Y3), then 2 (Y0), then 1 (X0).
TEXT ·addScaledConjBatchAVX2(SB), NOSPLIT, $0-72
	MOVQ           dst_base+0(FP), DI
	MOVQ           dst_len+8(FP), BX   // columns left
	MOVQ           a_base+24(FP), R11
	MOVQ           a_len+32(FP), R12   // samples
	MOVQ           x_base+48(FP), SI   // sample 0 of the block's first column
	MOVQ           BX, R8
	SHLQ           $4, R8              // x's row stride in bytes
	TESTQ          R12, R12
	JZ             done
	VBROADCASTF128 negOdd<>(SB), Y8    // [0, −0, 0, −0]
	VPERMILPD      $5, Y8, Y9          // [−0, 0, −0, 0]

block8:
	CMPQ    BX, $8
	JB      block2
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R11, R10
	MOVQ    SI, R9
	MOVQ    R12, CX

sample8:
	VBROADCASTSD (R10), Y6
	VXORPD       Y8, Y6, Y6            // [ar, −ar, ar, −ar]
	VBROADCASTSD 8(R10), Y7
	VXORPD       Y9, Y7, Y7            // [−ai, ai, −ai, ai]
	VMOVUPD      (R9), Y4              // [x0r, x0i, x1r, x1i]
	VPERMILPD    $5, Y4, Y5            // [x0i, x0r, x1i, x1r]
	VMULPD       Y6, Y4, Y4
	VMULPD       Y7, Y5, Y5
	VADDSUBPD    Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	VMOVUPD      32(R9), Y10
	VPERMILPD    $5, Y10, Y11
	VMULPD       Y6, Y10, Y10
	VMULPD       Y7, Y11, Y11
	VADDSUBPD    Y11, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VMOVUPD      64(R9), Y12
	VPERMILPD    $5, Y12, Y13
	VMULPD       Y6, Y12, Y12
	VMULPD       Y7, Y13, Y13
	VADDSUBPD    Y13, Y12, Y12
	VADDPD       Y12, Y2, Y2
	VMOVUPD      96(R9), Y14
	VPERMILPD    $5, Y14, Y15
	VMULPD       Y6, Y14, Y14
	VMULPD       Y7, Y15, Y15
	VADDSUBPD    Y15, Y14, Y14
	VADDPD       Y14, Y3, Y3
	ADDQ         $16, R10
	ADDQ         R8, R9
	DECQ         CX
	JNZ          sample8
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $8, BX
	JMP          block8

block2:
	CMPQ    BX, $2
	JB      block1
	VMOVUPD (DI), Y0
	MOVQ    R11, R10
	MOVQ    SI, R9
	MOVQ    R12, CX

sample2:
	VBROADCASTSD (R10), Y6
	VXORPD       Y8, Y6, Y6
	VBROADCASTSD 8(R10), Y7
	VXORPD       Y9, Y7, Y7
	VMOVUPD      (R9), Y4
	VPERMILPD    $5, Y4, Y5
	VMULPD       Y6, Y4, Y4
	VMULPD       Y7, Y5, Y5
	VADDSUBPD    Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $16, R10
	ADDQ         R8, R9
	DECQ         CX
	JNZ          sample2
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $2, BX
	JMP          block2

block1:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), X0
	MOVQ    R11, R10
	MOVQ    SI, R9
	MOVQ    R12, CX

sample1:
	VBROADCASTSD (R10), Y6
	VXORPD       Y8, Y6, Y6
	VBROADCASTSD 8(R10), Y7
	VXORPD       Y9, Y7, Y7
	VMOVUPD      (R9), X4
	VPERMILPD    $1, X4, X5
	VMULPD       X6, X4, X4
	VMULPD       X7, X5, X5
	VADDSUBPD    X5, X4, X4
	VADDPD       X4, X0, X0
	ADDQ         $16, R10
	ADDQ         R8, R9
	DECQ         CX
	JNZ          sample1
	VMOVUPD      X0, (DI)

done:
	VZEROUPPER
	RET

// negOdd flips the sign of a pair's second part.
DATA  negOdd<>+0(SB)/8, $0
DATA  negOdd<>+8(SB)/8, $0x8000000000000000
GLOBL negOdd<>(SB), RODATA|NOPTR, $16
