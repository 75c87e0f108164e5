//go:build !purego

#include "textflag.h"

// Four-lane replicas of math.Exp and math.Log on amd64 (math/exp_amd64.s,
// math/log_amd64.s; DESIGN.md, "The class head"). A lane runs the scalar
// body's instructions in the scalar body's order, with its constants spelled
// as the scalar body spells them, so every lane that stays on the scalar
// code's straight-line path gets its bits. A group of four in which any lane
// would branch away from that path is not computed: the kernel stops in front
// of it and returns how many elements it has written, and the Go wrapper runs
// the group through math before calling again. dst and src have the same
// length, a multiple of 4, and are the same slice or do not overlap.
//
// math.Exp has two bodies, a plain one and an FMA one; only the FMA body is
// replicated here (expFMA), fused at exactly the ten places the scalar FMA
// body is. Whether math.Exp runs that body in this process is asked of
// math.Exp itself at init (elementwise.go); where it runs the plain one,
// ExpInto is math.Exp's own loop. Nothing else in this package fuses a
// multiply and an add.

// A constant in all four lanes, for a memory operand.
#define LANES4(name, v) \
	DATA name<>+0(SB)/8, v;  \
	DATA name<>+8(SB)/8, v;  \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// math/exp_amd64.s.
LANES4(expLog2e, $1.4426950408889634073599246810018920)
LANES4(expLn2U, $0.69314718055966295651160180568695068359375)
LANES4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
LANES4(expOverflow, $7.09782712893384e+02)
LANES4(expSixteenth, $0.0625)
LANES4(expHalf, $0.5)
LANES4(expOne, $1.0)
LANES4(expTwo, $2.0)
LANES4(expC24, $1.6666666666666666667e-1)
LANES4(expC32, $4.1666666666666666667e-2)
LANES4(expC40, $8.3333333333333333333e-3)
LANES4(expC48, $1.3888888888888888889e-3)
LANES4(expC56, $1.9841269841269841270e-4)
LANES4(expC64, $2.4801587301587301587e-5)

// The exponent bias and the first biased exponent past the finite range,
// as four int32 lanes.
DATA expBias<>+0(SB)/8, $0x000003ff000003ff
DATA expBias<>+8(SB)/8, $0x000003ff000003ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16
DATA expTop<>+0(SB)/8, $0x000007ff000007ff
DATA expTop<>+8(SB)/8, $0x000007ff000007ff
GLOBL expTop<>(SB), RODATA|NOPTR, $16

// math/log_amd64.s.
LANES4(logHSqrt2, $7.07106781186547524401e-01)
LANES4(logLn2Hi, $6.93147180369123816490e-01)
LANES4(logLn2Lo, $1.90821492927058770002e-10)
LANES4(logL1, $6.666666666666735130e-01)
LANES4(logL2, $3.999999999940941908e-01)
LANES4(logL3, $2.857142874366239149e-01)
LANES4(logL4, $2.222219843214978396e-01)
LANES4(logL5, $1.818357216161805012e-01)
LANES4(logL6, $1.531383769920937332e-01)
LANES4(logL7, $1.479819860511658591e-01)
LANES4(logMant, $0x000FFFFFFFFFFFFF)
LANES4(logPosInf, $0x7FF0000000000000)
// 2⁵² as bits and as a float: OR-ing a small integer into the first and
// subtracting the second converts it to float64 exactly, as CVTSL2SD does.
LANES4(logMagic, $0x4330000000000000)
LANES4(log1022, $1022.0)

// func hasFMA() bool
// CPUID.1:ECX FMA. elementwise.go asks it only once hasAVX2 has found AVX2
// and the OS saving YMM state.
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $12, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// func expFMA(dst, src []float64) int
// The FMA body of math.Exp: the two reduction steps, the seven Horner steps
// and the last step of the squarings fused, everything else rounded on its own.
TEXT ·expFMA(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VPXOR   X13, X13, X13
	VMOVDQU expTop<>(SB), X12
expfused:
	CMPQ AX, CX
	JGE  expfuseddone
	// x in Y0, n in Y1 (as a float) and n + 0x3FF in X2 (as int32). A lane
	// stays on the scalar path when x ≤ Overflow (false for NaN and +Inf) and
	// 0 < n + 0x3FF < 0x7FF (false for -Inf, whose n is the integer
	// indefinite): exactly the lanes that are finite, not above Overflow and
	// need neither the denormal nor the overflow branch of the scalar ldexp.
	VMOVUPD      (SI)(AX*1), Y0
	VCMPPD       $0x12, expOverflow<>(SB), Y0, Y3
	VMULPD       expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VPADDD       expBias<>(SB), X2, X2
	VPCMPGTD     X13, X2, X4
	VPCMPGTD     X2, X12, X5
	VPAND        X5, X4, X4
	VMOVMSKPD    Y3, BX
	VMOVMSKPS    X4, DX
	ANDL         DX, BX
	CMPL         BX, $15
	JNE          expfuseddone
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0
	VMOVUPD      expC64<>(SB), Y1
	VFMADD213PD  expC56<>(SB), Y0, Y1
	VFMADD213PD  expC48<>(SB), Y0, Y1
	VFMADD213PD  expC40<>(SB), Y0, Y1
	VFMADD213PD  expC32<>(SB), Y0, Y1
	VFMADD213PD  expC24<>(SB), Y0, Y1
	VFMADD213PD  expHalf<>(SB), Y0, Y1
	VFMADD213PD  expOne<>(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y1
	VFMADD213PD  expOne<>(SB), Y1, Y0
	// times 2ⁿ, built from the biased exponent in X2
	VPMOVZXDQ    X2, Y3
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y3, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*1)
	ADDQ         $32, AX
	JMP          expfused
expfuseddone:
	SHRQ $3, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func logAVX2(dst, src []float64) int
// math/log_amd64.s. A lane stays on the scalar path when its bits, as a signed
// integer, lie strictly between 0 and +Inf's: not ±0, not negative, not +Inf
// or NaN. Subnormals stay on it, as they do in the scalar body, which reads
// their exponent field as it reads any other.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VPXOR   Y13, Y13, Y13
	VMOVDQU logPosInf<>(SB), Y12
logloop:
	CMPQ AX, CX
	JGE  logdone
	VMOVDQU   (SI)(AX*1), Y0
	VPCMPGTQ  Y13, Y0, Y1
	VPCMPGTQ  Y0, Y12, Y2
	VPAND     Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       logdone
	// k = exponent field - 0x3FE, f1 = mantissa with the exponent of 0.5
	VPSRLQ    $52, Y0, Y1
	VPOR      logMagic<>(SB), Y1, Y1
	VSUBPD    logMagic<>(SB), Y1, Y1
	VSUBPD    log1022<>(SB), Y1, Y1
	VANDPD    logMant<>(SB), Y0, Y2
	VORPD     expHalf<>(SB), Y2, Y2
	// if !(Sqrt2/2 < f1) { k -= 1; f1 *= 2 }, through a 0-or-1 mask
	VMOVUPD   logHSqrt2<>(SB), Y3
	VCMPPD    $5, Y2, Y3, Y3
	VANDPD    expOne<>(SB), Y3, Y3
	VSUBPD    Y3, Y1, Y1
	VADDPD    expOne<>(SB), Y3, Y3
	VMULPD    Y3, Y2, Y2
	// f = f1 - 1, s = f / (2 + f), s2, s4
	VSUBPD    expOne<>(SB), Y2, Y2
	VADDPD    expTwo<>(SB), Y2, Y0
	VDIVPD    Y0, Y2, Y3
	VMULPD    Y3, Y3, Y4
	VMULPD    Y4, Y4, Y5
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD    logL7<>(SB), Y5, Y6
	VADDPD    logL5<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    logL3<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    logL1<>(SB), Y6, Y6
	VMULPD    Y6, Y4, Y4
	// t2 = s4·(L2 + s4·(L4 + s4·L6)), R = t1 + t2
	VMULPD    logL6<>(SB), Y5, Y6
	VADDPD    logL4<>(SB), Y6, Y6
	VMULPD    Y5, Y6, Y6
	VADDPD    logL2<>(SB), Y6, Y6
	VMULPD    Y6, Y5, Y5
	VADDPD    Y5, Y4, Y4
	// hfsq = 0.5·f·f; k·Ln2Hi - ((hfsq - (s·(hfsq + R) + k·Ln2Lo)) - f)
	VMULPD    expHalf<>(SB), Y2, Y0
	VMULPD    Y2, Y0, Y0
	VADDPD    Y0, Y4, Y4
	VMULPD    Y4, Y3, Y3
	VMULPD    logLn2Lo<>(SB), Y1, Y4
	VADDPD    Y4, Y3, Y3
	VSUBPD    Y3, Y0, Y0
	VSUBPD    Y2, Y0, Y0
	VMULPD    logLn2Hi<>(SB), Y1, Y1
	VSUBPD    Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*1)
	ADDQ      $32, AX
	JMP       logloop
logdone:
	SHRQ $3, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
