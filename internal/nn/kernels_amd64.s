#include "textflag.h"

// AVX2 matmul micro-kernels. Every kernel multiplies with VMULPD and adds
// with VADDPD (never FMA) in the same order as the Go kernel it replaces,
// so each output lane carries exactly the Go kernel's rounding steps and
// bits. Row and column remainders are left to Go (see kernels.go).

// func cpuHasAVX2() bool
//
// Reports AVX2 support with YMM state enabled by the OS: CPUID leaf 1
// OSXSAVE and AVX, XCR0 bits 1 and 2 (XMM and YMM state), and CPUID leaf 7
// AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// GEMM register map: DI dst row block, SI a row block, DX b, R8 row blocks
// left, R12 = k*8 and R14 = 3*k*8 (a row strides), R13 = n*8 and
// R10 = 3*n*8 (b and dst row strides), R11 = byte width of the 8-column
// tiles, BX tile column (bytes), AX &a[i][p], R15 &b[p][j], CX p count.

// DOT_ROW8 adds one p step to the accumulator pair (lo, hi) of one row:
// acc += bcast(a[r][p]) * b[p][j:j+8].
#define DOT_ROW8(src, bc, lo, hi) \
	VBROADCASTSD src, bc \
	VMULPD       Y8, bc, Y14 \
	VADDPD       Y14, lo, lo \
	VMULPD       Y9, bc, Y15 \
	VADDPD       Y15, hi, hi

// INIT_ROW8 is DOT_ROW8's first step for the product-initialised mode:
// acc = bcast(a[r][0]) * b[0][j:j+8].
#define INIT_ROW8(src, bc, lo, hi) \
	VBROADCASTSD src, bc \
	VMULPD       Y8, bc, lo \
	VMULPD       Y9, bc, hi

#define DOT_ROW4(src, bc, acc) \
	VBROADCASTSD src, bc \
	VMULPD       Y8, bc, Y14 \
	VADDPD       Y14, acc, acc

#define INIT_ROW4(src, bc, acc) \
	VBROADCASTSD src, bc \
	VMULPD       Y8, bc, acc

// AXPY_SKIP jumps to next when a[i][p] .. a[i+3][p] are all ±0: the OR of
// their bits, shifted past the sign bit, is zero.
#define AXPY_SKIP(next) \
	MOVQ (AX), R9 \
	ORQ  (AX)(R12*1), R9 \
	ORQ  (AX)(R12*2), R9 \
	ORQ  (AX)(R14*1), R9 \
	SHLQ $1, R9 \
	JZ   next

// func gemmAVX2(dst, a, b []float64, m, k, n, mode int)
//
// For rows [0, m&^3) and columns [0, n&^3) of dst [m,n]: acc = Σ_p
// a[i][p]·b[p][j] in p-ascending order over a [m,k] and b [k,n], k >= 1,
// summed from +0 (modes 0 and 1) or from the p = 0 product (mode 2); then
// dst += acc (mode 0) or dst = acc (modes 1 and 2). Mode 3 is the axpy
// form: acc starts from dst, skips every p whose four a values are all ±0,
// and is stored back.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ m+72(FP), R8
	SHRQ $2, R8
	JZ   gemmDone
	MOVQ k+80(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R14
	MOVQ n+88(FP), R13
	SHLQ $3, R13
	LEAQ (R13)(R13*2), R10
	MOVQ n+88(FP), R11
	ANDQ $-8, R11
	SHLQ $3, R11

gemmRow:
	XORQ BX, BX

gemmCol8:
	LEAQ 64(BX), R9
	CMPQ R9, R11
	JGT  gemmCol4
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R15
	MOVQ k+80(FP), CX
	MOVQ mode+96(FP), R9
	CMPQ R9, $3
	JEQ  gemmAxpy8
	CMPQ R9, $2
	JNE  gemmZero8
	VMOVUPD (R15), Y8
	VMOVUPD 32(R15), Y9
	INIT_ROW8((AX), Y10, Y0, Y1)
	INIT_ROW8((AX)(R12*1), Y11, Y2, Y3)
	INIT_ROW8((AX)(R12*2), Y12, Y4, Y5)
	INIT_ROW8((AX)(R14*1), Y13, Y6, Y7)
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JZ   gemmStore8
	JMP  gemmLoop8

gemmZero8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

gemmLoop8:
	VMOVUPD (R15), Y8
	VMOVUPD 32(R15), Y9
	DOT_ROW8((AX), Y10, Y0, Y1)
	DOT_ROW8((AX)(R12*1), Y11, Y2, Y3)
	DOT_ROW8((AX)(R12*2), Y12, Y4, Y5)
	DOT_ROW8((AX)(R14*1), Y13, Y6, Y7)
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JNZ  gemmLoop8
	JMP  gemmStore8

gemmAxpy8:
	LEAQ    (DI)(BX*1), R9
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD (R9)(R13*1), Y2
	VMOVUPD 32(R9)(R13*1), Y3
	VMOVUPD (R9)(R13*2), Y4
	VMOVUPD 32(R9)(R13*2), Y5
	VMOVUPD (R9)(R10*1), Y6
	VMOVUPD 32(R9)(R10*1), Y7

gemmAxpyLoop8:
	AXPY_SKIP(gemmAxpyNext8)
	VMOVUPD (R15), Y8
	VMOVUPD 32(R15), Y9
	DOT_ROW8((AX), Y10, Y0, Y1)
	DOT_ROW8((AX)(R12*1), Y11, Y2, Y3)
	DOT_ROW8((AX)(R12*2), Y12, Y4, Y5)
	DOT_ROW8((AX)(R14*1), Y13, Y6, Y7)

gemmAxpyNext8:
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JNZ  gemmAxpyLoop8

gemmStore8:
	LEAQ (DI)(BX*1), R9
	MOVQ mode+96(FP), CX
	TESTQ CX, CX
	JNZ  gemmSet8
	VADDPD (R9), Y0, Y0
	VADDPD 32(R9), Y1, Y1
	VADDPD (R9)(R13*1), Y2, Y2
	VADDPD 32(R9)(R13*1), Y3, Y3
	VADDPD (R9)(R13*2), Y4, Y4
	VADDPD 32(R9)(R13*2), Y5, Y5
	VADDPD (R9)(R10*1), Y6, Y6
	VADDPD 32(R9)(R10*1), Y7, Y7

gemmSet8:
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, (R9)(R13*1)
	VMOVUPD Y3, 32(R9)(R13*1)
	VMOVUPD Y4, (R9)(R13*2)
	VMOVUPD Y5, 32(R9)(R13*2)
	VMOVUPD Y6, (R9)(R10*1)
	VMOVUPD Y7, 32(R9)(R10*1)
	ADDQ    $64, BX
	JMP     gemmCol8

gemmCol4:
	MOVQ n+88(FP), R9
	ANDQ $4, R9
	JZ   gemmNextRow
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R15
	MOVQ k+80(FP), CX
	MOVQ mode+96(FP), R9
	CMPQ R9, $3
	JEQ  gemmAxpy4
	CMPQ R9, $2
	JNE  gemmZero4
	VMOVUPD (R15), Y8
	INIT_ROW4((AX), Y10, Y0)
	INIT_ROW4((AX)(R12*1), Y11, Y2)
	INIT_ROW4((AX)(R12*2), Y12, Y4)
	INIT_ROW4((AX)(R14*1), Y13, Y6)
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JZ   gemmStore4
	JMP  gemmLoop4

gemmZero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6

gemmLoop4:
	VMOVUPD (R15), Y8
	DOT_ROW4((AX), Y10, Y0)
	DOT_ROW4((AX)(R12*1), Y11, Y2)
	DOT_ROW4((AX)(R12*2), Y12, Y4)
	DOT_ROW4((AX)(R14*1), Y13, Y6)
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JNZ  gemmLoop4
	JMP  gemmStore4

gemmAxpy4:
	LEAQ    (DI)(BX*1), R9
	VMOVUPD (R9), Y0
	VMOVUPD (R9)(R13*1), Y2
	VMOVUPD (R9)(R13*2), Y4
	VMOVUPD (R9)(R10*1), Y6

gemmAxpyLoop4:
	AXPY_SKIP(gemmAxpyNext4)
	VMOVUPD (R15), Y8
	DOT_ROW4((AX), Y10, Y0)
	DOT_ROW4((AX)(R12*1), Y11, Y2)
	DOT_ROW4((AX)(R12*2), Y12, Y4)
	DOT_ROW4((AX)(R14*1), Y13, Y6)

gemmAxpyNext4:
	ADDQ $8, AX
	ADDQ R13, R15
	DECQ CX
	JNZ  gemmAxpyLoop4

gemmStore4:
	LEAQ (DI)(BX*1), R9
	MOVQ mode+96(FP), CX
	TESTQ CX, CX
	JNZ  gemmSet4
	VADDPD (R9), Y0, Y0
	VADDPD (R9)(R13*1), Y2, Y2
	VADDPD (R9)(R13*2), Y4, Y4
	VADDPD (R9)(R10*1), Y6, Y6

gemmSet4:
	VMOVUPD Y0, (R9)
	VMOVUPD Y2, (R9)(R13*1)
	VMOVUPD Y4, (R9)(R13*2)
	VMOVUPD Y6, (R9)(R10*1)

gemmNextRow:
	LEAQ (SI)(R12*4), SI
	LEAQ (DI)(R13*4), DI
	DECQ R8
	JNZ  gemmRow

gemmDone:
	VZEROUPPER
	RET

// func bwdBAVX2(dB, a, g []float64, m, k, n int)
//
// For rows [0, m&^3) of a [m,k] and g [m,n], four rows per pass, and
// columns [0, n&^3) of dB [k,n]: dB[p][j] += a0p·g0[j] + a1p·g1[j] +
// a2p·g2[j] + a3p·g3[j], summed left to right, skipping p when all four
// a values are ±0.
//
// Registers: DI dB, SI a row block, R11 g row block, R8 row blocks left,
// R12 = k*8 and R14 = 3*k*8, R13 = n*8 and R9 = 3*n*8, AX &a[i][p],
// BX &dB[p][0], CX p count, DX &g[i][j], R15 &dB[p][j], R10 column blocks
// left, Y8–Y11 the broadcast a values, Y15 the magnitude mask.
TEXT ·bwdBAVX2(SB), NOSPLIT, $0-96
	MOVQ dB_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ g_base+48(FP), R11
	MOVQ m+72(FP), R8
	SHRQ $2, R8
	JZ   bwdBDone
	MOVQ k+80(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R14
	MOVQ n+88(FP), R13
	SHLQ $3, R13
	LEAQ (R13)(R13*2), R9
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15

bwdBRow:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ k+80(FP), CX

bwdBP:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (AX)(R12*1), Y9
	VBROADCASTSD (AX)(R12*2), Y10
	VBROADCASTSD (AX)(R14*1), Y11
	VORPD        Y8, Y9, Y12
	VORPD        Y10, Y11, Y13
	VORPD        Y12, Y13, Y12
	VPTEST       Y15, Y12
	JZ           bwdBSkip
	MOVQ         R11, DX
	MOVQ         BX, R15
	MOVQ         n+88(FP), R10
	SHRQ         $2, R10

bwdBCol:
	VMULPD  (DX), Y8, Y12
	VMULPD  (DX)(R13*1), Y9, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  (DX)(R13*2), Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  (DX)(R9*1), Y11, Y13
	VADDPD  Y13, Y12, Y12
	VADDPD  (R15), Y12, Y12
	VMOVUPD Y12, (R15)
	ADDQ    $32, DX
	ADDQ    $32, R15
	DECQ    R10
	JNZ     bwdBCol

bwdBSkip:
	ADDQ $8, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  bwdBP
	LEAQ (SI)(R12*4), SI
	LEAQ (R11)(R13*4), R11
	DECQ R8
	JNZ  bwdBRow

bwdBDone:
	VZEROUPPER
	RET
