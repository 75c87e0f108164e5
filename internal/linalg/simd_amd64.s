//go:build !purego

#include "textflag.h"

// AVX2 bodies of the f64 kernels (DESIGN.md, "Memory layout and kernels").
// A lane is an output element. Each lane runs the Go loop's own operation
// sequence: one VMULPD, then one VADDPD, each rounded on its own, k ascending.
// Never the fused multiply-add: it rounds once and changes the bits.
// The Go wrappers slice every operand to its full extent before the call and
// decide every edge case (no rows, k = 0, fewer than 4 columns) themselves:
// the counted loops below would run 2⁶⁴ times from zero. Every kernel ends in
// VZEROUPPER.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8
DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8
DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8
DATA oneq<>+0(SB)/8, $1
GLOBL oneq<>(SB), RODATA|NOPTR, $8

// func hasAVX2() bool
// CPUID.1:ECX OSXSAVE+AVX, XCR0 XMM+YMM state enabled by the OS, CPUID.7:EBX AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
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
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// One k-step of the panel for one row of a tile, 4 or 8 columns wide: the
// coefficient broadcast in Y10 times the B lanes in Y8 (Y9), rounded (Y11),
// then added to the row's C lanes.
#define AXPY4(lo, hi) \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, lo, lo;
#define AXPY8(lo, hi) \
	AXPY4(lo, hi)        \
	VMULPD Y9, Y10, Y11; \
	VADDPD Y11, hi, hi;

// The rows of one k-step, for tiles of 1, 2, 3 and 4 rows.
#define ROWS1(AXPY) \
	VBROADCASTSD (SI), Y10; \
	AXPY(Y0, Y1)
#define ROWS2(AXPY) \
	ROWS1(AXPY)                   \
	VBROADCASTSD (SI)(R8*1), Y10; \
	AXPY(Y2, Y3)
#define ROWS3(AXPY) \
	ROWS2(AXPY)                   \
	VBROADCASTSD (SI)(R9*1), Y10; \
	AXPY(Y4, Y5)
#define ROWS4(AXPY) \
	ROWS3(AXPY)                    \
	VBROADCASTSD (SI)(R10*1), Y10; \
	AXPY(Y6, Y7)

// All of k for one tile: the B lanes of the step (HI loads the upper four of
// eight), its rows, the next step.
#define NOHI
#define HI8 VMOVUPD 32(BX), Y9;
#define STEPS(label, ROWS, AXPY, HI) \
label:                \
	VMOVUPD (BX), Y8; \
	HI                \
	ROWS(AXPY)        \
	ADDQ    DX, BX;   \
	ADDQ    R11, SI;  \
	DECQ    CX;       \
	JNZ     label;

// The k-steps of a tile by the rows of its band: the caller has jumped to l4
// or l3 for 4 or 3 rows and compared the rest with 2.
#define TILE(l1, l2, l3, l4, done, AXPY, HI) \
	JEQ  l2;                    \
	STEPS(l1, ROWS1, AXPY, HI)  \
	JMP  done;                  \
	STEPS(l2, ROWS2, AXPY, HI)  \
	JMP  done;                  \
	STEPS(l3, ROWS3, AXPY, HI)  \
	JMP  done;                  \
	STEPS(l4, ROWS4, AXPY, HI)  \
done:

// A block of 1 or 8 vectors of one row of C in Y0–Y7, as the short-k panel
// and the wide tile run it: the first k-step of a sum from zero (the
// products of the coefficient in Y10 and the B lanes at BX, the multiplies'
// memory operands, each plus zero: the sum's first add), a later k-step (Y11
// the product), the gate (GATE's test with the gate's lanes at AX as the
// compare's memory operand: Y13 holds 1 as an int64, so 1 > g is g ≤ 0, and
// VPANDN of that with the 1.0 in Y12 is the multiplier) and the store to DI.
#define SP_FIRSTV(off, y) VMULPD off(BX), Y10, y; VADDPD Y14, y, y;
#define SP_FIRST1 SP_FIRSTV(0, Y0)
#define SP_FIRST8 SP_FIRST1 SP_FIRSTV(32, Y1) SP_FIRSTV(64, Y2) SP_FIRSTV(96, Y3) SP_FIRSTV(128, Y4) SP_FIRSTV(160, Y5) SP_FIRSTV(192, Y6) SP_FIRSTV(224, Y7)
#define SP_STEPV(off, y) VMULPD off(BX), Y10, Y11; VADDPD Y11, y, y;
#define SP_STEP1 SP_STEPV(0, Y0)
#define SP_STEP8 SP_STEP1 SP_STEPV(32, Y1) SP_STEPV(64, Y2) SP_STEPV(96, Y3) SP_STEPV(128, Y4) SP_STEPV(160, Y5) SP_STEPV(192, Y6) SP_STEPV(224, Y7)
#define SP_GATEV(off, y) VPCMPGTQ off(AX), Y13, Y8; VPANDN Y12, Y8, Y8; VMULPD Y8, y, y;
#define SP_GATE1 SP_GATEV(0, Y0)
#define SP_GATE8 SP_GATE1 SP_GATEV(32, Y1) SP_GATEV(64, Y2) SP_GATEV(96, Y3) SP_GATEV(128, Y4) SP_GATEV(160, Y5) SP_GATEV(192, Y6) SP_GATEV(224, Y7)
#define SP_STOREV(off, y) VMOVUPD y, off(DI);
#define SP_STORE1 SP_STOREV(0, Y0)
#define SP_STORE8 SP_STORE1 SP_STOREV(32, Y1) SP_STOREV(64, Y2) SP_STOREV(96, Y3) SP_STOREV(128, Y4) SP_STOREV(160, Y5) SP_STOREV(192, Y6) SP_STOREV(224, Y7)
#define NOGATE
#define WIDE_LOAD \
	VMOVUPD (DI), Y0;    \
	VMOVUPD 32(DI), Y1;  \
	VMOVUPD 64(DI), Y2;  \
	VMOVUPD 96(DI), Y3;  \
	VMOVUPD 128(DI), Y4; \
	VMOVUPD 160(DI), Y5; \
	VMOVUPD 192(DI), Y6; \
	VMOVUPD 224(DI), Y7;

// A tile's lower and upper four columns between C and Y0–Y7 (rows descending
// on the way back, see below), and the same lanes seeded from the one row at AX.
#define LOAD4 \
	VMOVUPD (DI), Y0;        \
	VMOVUPD (DI)(R12*1), Y2; \
	VMOVUPD (DI)(R13*1), Y4; \
	VMOVUPD (DI)(R14*1), Y6;
#define LOADHI \
	VMOVUPD 32(DI), Y1;        \
	VMOVUPD 32(DI)(R12*1), Y3; \
	VMOVUPD 32(DI)(R13*1), Y5; \
	VMOVUPD 32(DI)(R14*1), Y7;
#define STORE4 \
	VMOVUPD Y6, (DI)(R14*1); \
	VMOVUPD Y4, (DI)(R13*1); \
	VMOVUPD Y2, (DI)(R12*1); \
	VMOVUPD Y0, (DI);
#define STOREHI \
	VMOVUPD Y7, 32(DI)(R14*1); \
	VMOVUPD Y5, 32(DI)(R13*1); \
	VMOVUPD Y3, 32(DI)(R12*1); \
	VMOVUPD Y1, 32(DI);
#define SEED4 \
	VMOVUPD (AX), Y0; \
	VMOVAPD Y0, Y2;   \
	VMOVAPD Y0, Y4;   \
	VMOVAPD Y0, Y6;
#define SEEDHI \
	VMOVUPD 32(AX), Y1; \
	VMOVAPD Y1, Y3;     \
	VMOVAPD Y1, Y5;     \
	VMOVAPD Y1, Y7;

// The store epilogues, element-wise on the tile's finished lanes, lower four
// columns (…4) and upper four (…HI). POST adds the bias row at AX to every
// row: sum first, bias second, as a separate pass would. RELU is reluAVX2's
// sequence with Y13 holding the sign bit and Y14 zero (Y15 scratch). GATE
// multiplies a lane by 1.0 where the gate's lane (AX, rows at the C offsets) is
// > 0 as a signed 64-bit integer and by 0.0 elsewhere — reluGateAVX2's test,
// with Y12 holding 1.0 and Y14 zero (Y8 scratch).
#define POST4 \
	VMOVUPD (AX), Y8;   \
	VADDPD  Y8, Y0, Y0; \
	VADDPD  Y8, Y2, Y2; \
	VADDPD  Y8, Y4, Y4; \
	VADDPD  Y8, Y6, Y6;
#define POSTHI \
	VMOVUPD 32(AX), Y9; \
	VADDPD  Y9, Y1, Y1; \
	VADDPD  Y9, Y3, Y3; \
	VADDPD  Y9, Y5, Y5; \
	VADDPD  Y9, Y7, Y7;
#define RELU(y) \
	VCMPPD  $0x16, Y14, y, Y15; \
	VANDNPD y, Y13, y;          \
	VANDPD  Y15, y, y;
#define RELU4 RELU(Y0) RELU(Y2) RELU(Y4) RELU(Y6)
#define RELUHI RELU(Y1) RELU(Y3) RELU(Y5) RELU(Y7)
#define GATE(at, y) \
	VMOVDQU  at, Y8;      \
	VPCMPGTQ Y14, Y8, Y8; \
	VPAND    Y12, Y8, Y8; \
	VMULPD   Y8, y, y;
#define GATE4 \
	GATE((AX), Y0)         \
	GATE((AX)(R12*1), Y2)  \
	GATE((AX)(R13*1), Y4)  \
	GATE((AX)(R14*1), Y6)
#define GATEHI \
	GATE(32(AX), Y1)        \
	GATE(32(AX)(R12*1), Y3) \
	GATE(32(AX)(R13*1), Y5) \
	GATE(32(AX)(R14*1), Y7)

// func axpyPanelAVX2(c, a, b, seed []float64, rows, k, n, cols, rowStride, stepStride, seedStep int, post, gate []float64, relu bool)
// C[r][j] = s + Σ_p a[r·rowStride + p·stepStride]·B[p][j] for r < rows, j < cols,
// each element advanced over p ascending from its seed s: what C[r][j] held
// (len(seed) = 0), or seed[j·seedStep] — seedStep 1 starts every row from one
// bias row, seedStep 0 every tile from the same eight values (zeros). c: rows
// rows of C, n apart; b: k rows of B, n apart; rows, k ≥ 1; cols a positive
// multiple of 4. Before its store each finished element gets, in this order,
// + post[j] (len(post) = n; none when empty), max(·, 0) (relu), and the gate
// of gate[r·n + j] (gate: rows rows of n, like c; none when empty).
//
// Loop order: 4-row band, block of 8 columns (then one of 4), all of k. The
// tile's C lanes live in Y0–Y7 (row r in Y2r, Y2r+1) from one load to one
// store; a k-step loads 8 B columns once (Y8, Y9) and broadcasts one
// coefficient per row (Y10). Tile row r sits R8/R9/R10 bytes past row 0 in A
// and R12/R13/R14 in C. A last band of 3, 2 or 1 rows points the missing rows
// at its own last row: their lanes are loaded like any other, never advance,
// and are stored BEFORE the rows above them, so that the last store to an
// address is the real row's. A last band of one row with no epilogue and no
// bias row first runs wide tiles of 32 columns (eight add chains where its
// 8-column tile has two). The epilogues' constants live in Y12 (1.0), Y13 (the
// sign bit) and Y14 (zero) for the whole call.
TEXT ·axpyPanelAVX2(SB), NOSPLIT, $0-201
	MOVQ n+112(FP), DX
	MOVQ stepStride+136(FP), R11
	SHLQ $3, DX
	SHLQ $3, R11
	SHLQ $3, rowStride+128(FP)
	SHLQ $3, cols+120(FP)
	NEGQ seedStep+144(FP) // now the mask of a tile's column offset within seed
	VBROADCASTSD one<>(SB), Y12
	VBROADCASTSD signbit<>(SB), Y13
	VXORPD       Y14, Y14, Y14
band:
	MOVQ    rows+96(FP), AX // the band's last row: min(rows left, 4) - 1
	DECQ    AX
	MOVQ    $3, CX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	MOVQ    $1, R8 // tile rows 1, 2, 3 are rows min(1, AX), min(2, AX), AX of the band
	CMPQ    AX, R8
	CMOVQLT AX, R8
	MOVQ    $2, R9
	CMPQ    AX, R9
	CMOVQLT AX, R9
	MOVQ    R8, R12
	MOVQ    R9, R13
	MOVQ    AX, R14
	MOVQ    AX, R10
	IMULQ   rowStride+128(FP), R8
	IMULQ   rowStride+128(FP), R9
	IMULQ   rowStride+128(FP), R10
	IMULQ   DX, R12
	IMULQ   DX, R13
	IMULQ   DX, R14
	XORQ    R15, R15 // byte offset of the tile's first column in a row of B and C
	TESTQ   AX, AX
	JNZ     tile
	CMPQ    post_len+160(FP), $0
	JNE     tile
	CMPB    relu+200(FP), $0
	JNE     tile
	CMPQ    gate_len+184(FP), $0
	JNE     tile
	CMPQ    seedStep+144(FP), $0
	JNE     tile
wide:
	MOVQ cols+120(FP), CX
	SUBQ R15, CX
	CMPQ CX, $256
	JLT  tile
	MOVQ c_base+0(FP), DI
	MOVQ b_base+48(FP), BX
	MOVQ a_base+24(FP), SI
	ADDQ R15, DI
	ADDQ R15, BX
	MOVQ k+104(FP), CX
	VBROADCASTSD (SI), Y10
	CMPQ seed_len+80(FP), $0
	JEQ  wideload
	SP_FIRST8
	JMP  widenext
wideload:
	WIDE_LOAD
widestep:
	VBROADCASTSD (SI), Y10
	SP_STEP8
widenext:
	ADDQ DX, BX
	ADDQ R11, SI
	DECQ CX
	JNZ  widestep
	SP_STORE8
	ADDQ $256, R15
	JMP  wide
tile:
	MOVQ c_base+0(FP), DI
	MOVQ b_base+48(FP), BX
	MOVQ a_base+24(FP), SI
	ADDQ R15, DI
	ADDQ R15, BX
	MOVQ seedStep+144(FP), AX
	ANDQ R15, AX
	ADDQ seed_base+72(FP), AX
	MOVQ cols+120(FP), CX
	SUBQ R15, CX
	CMPQ CX, $64
	JLT  tile4
	CMPQ seed_len+80(FP), $0
	JEQ  load8
	SEED4
	SEEDHI
	JMP  steps8
load8:
	LOAD4
	LOADHI
steps8:
	MOVQ k+104(FP), CX
	CMPQ rows+96(FP), $3
	JGT  r4w8
	JEQ  r3w8
	CMPQ rows+96(FP), $2
	TILE(r1w8, r2w8, r3w8, r4w8, store8, AXPY8, HI8)
	MOVQ post_len+160(FP), AX
	TESTQ AX, AX
	JZ   relu8
	MOVQ post_base+152(FP), AX
	ADDQ R15, AX
	POST4
	POSTHI
relu8:
	CMPB relu+200(FP), $0
	JEQ  gate8
	RELU4
	RELUHI
gate8:
	MOVQ gate_len+184(FP), AX
	TESTQ AX, AX
	JZ   write8
	MOVQ gate_base+176(FP), AX
	ADDQ R15, AX
	GATE4
	GATEHI
write8:
	STOREHI
	STORE4
	ADDQ $64, R15
	JMP  tile
tile4:
	CMPQ CX, $32
	JLT  nextband
	CMPQ seed_len+80(FP), $0
	JEQ  load4
	SEED4
	JMP  steps4
load4:
	LOAD4
steps4:
	MOVQ k+104(FP), CX
	CMPQ rows+96(FP), $3
	JGT  r4w4
	JEQ  r3w4
	CMPQ rows+96(FP), $2
	TILE(r1w4, r2w4, r3w4, r4w4, store4, AXPY4, NOHI)
	MOVQ post_len+160(FP), AX
	TESTQ AX, AX
	JZ   relu4
	MOVQ post_base+152(FP), AX
	ADDQ R15, AX
	POST4
relu4:
	CMPB relu+200(FP), $0
	JEQ  gate4
	RELU4
gate4:
	MOVQ gate_len+184(FP), AX
	TESTQ AX, AX
	JZ   write4
	MOVQ gate_base+176(FP), AX
	ADDQ R15, AX
	GATE4
write4:
	STORE4
nextband:
	MOVQ rowStride+128(FP), AX
	SHLQ $2, AX
	ADDQ AX, a_base+24(FP)
	LEAQ (DX*4), AX
	ADDQ AX, c_base+0(FP)
	ADDQ AX, gate_base+176(FP)
	SUBQ $4, rows+96(FP)
	JGT  band
	VZEROUPPER
	RET


// One block of columns (bytes wide) down all the rows: each row's A
// coefficients walk from SI by R11, B's rows from R13 by DX; then C and the
// gate move down a row (DX), A by R9, and R15 moves past the block.
#define SP_ROWS(row, step, last, FIRST, STEP, GATE, STORE, bytes) \
row:                        \
	MOVQ         R13, BX;   \
	MOVQ         SI, R8;    \
	VBROADCASTSD (R8), Y10; \
	FIRST                   \
	MOVQ         R14, CX;   \
	DECQ         CX;        \
	JZ           last;      \
step:                       \
	ADDQ         R11, R8;   \
	ADDQ         DX, BX;    \
	VBROADCASTSD (R8), Y10; \
	STEP                    \
	DECQ         CX;        \
	JNZ          step;      \
last:                       \
	GATE                    \
	STORE                   \
	ADDQ         R9, SI;    \
	ADDQ         DX, DI;    \
	ADDQ         DX, AX;    \
	DECQ         R10;       \
	JNZ          row;       \
	ADDQ         $bytes, R15; \
	JMP          spblock;

// func shortPanelAVX2(c, a, b, gate []float64, rows, k, n, cols, rowStride, stepStride int)
// C[r][j] = 0 + Σ_p a[r·rowStride + p·stepStride]·B[p][j] for r < rows,
// j < cols, over p ascending from zero, then — when gate is not empty — the
// gate of gate[r·n + j] (axpyPanelAVX2's GATE). c: rows rows of C, n apart;
// b: k rows of B, n apart; rows, k ≥ 1; cols a positive multiple of 4.
//
// The axpy panel for a product whose k is a handful of steps, the class
// head's input gradient: there a tile's loads, seeding and store cost more
// than its few steps. Loop order: block of 32 columns (then of 4), row,
// all of k. A row's block lives in Y0–Y7 for its k steps, one broadcast
// coefficient (Y10) per step times B's lanes as the multiplies' memory
// operands; B's block stays in L1 across the rows, and nothing but the running
// row's pointers moves between rows.
TEXT ·shortPanelAVX2(SB), NOSPLIT, $0-144
	MOVQ         n+112(FP), DX
	MOVQ         cols+120(FP), R12
	MOVQ         rowStride+128(FP), R9
	MOVQ         stepStride+136(FP), R11
	MOVQ         k+104(FP), R14
	SHLQ         $3, DX
	SHLQ         $3, R12
	SHLQ         $3, R9
	SHLQ         $3, R11
	VBROADCASTSD one<>(SB), Y12
	VPBROADCASTQ oneq<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	XORQ         R15, R15 // byte offset of the block's first column
spblock:
	MOVQ R12, CX
	SUBQ R15, CX // bytes of columns left
	CMPQ CX, $32
	JLT  spdone
	MOVQ c_base+0(FP), DI
	ADDQ R15, DI
	MOVQ gate_base+72(FP), AX
	ADDQ R15, AX
	MOVQ b_base+48(FP), R13
	ADDQ R15, R13
	MOVQ a_base+24(FP), SI
	MOVQ rows+96(FP), R10
	CMPQ gate_len+80(FP), $0
	JEQ  spplain
	CMPQ CX, $256
	JGE  spgate32
	SP_ROWS(spg4row, spg4step, spg4last, SP_FIRST1, SP_STEP1, SP_GATE1, SP_STORE1, 32)
spgate32:
	SP_ROWS(spg32row, spg32step, spg32last, SP_FIRST8, SP_STEP8, SP_GATE8, SP_STORE8, 256)
spplain:
	CMPQ CX, $256
	JGE  spplain32
	SP_ROWS(sp4row, sp4step, sp4last, SP_FIRST1, SP_STEP1, NOGATE, SP_STORE1, 32)
spplain32:
	SP_ROWS(sp32row, sp32step, sp32last, SP_FIRST8, SP_STEP8, NOGATE, SP_STORE8, 256)
spdone:
	VZEROUPPER
	RET

// One k-step of the dot form: the row-lane accumulators Y8 (and Y9) advance
// by at·b0[p] (and at·b1[p]), at holding A[i..i+3][p].
#define DOT_STEP1(at, off) \
	VBROADCASTSD off(BX)(AX*1), Y10; \
	VMULPD       Y10, at, Y11;       \
	VADDPD       Y11, Y8, Y8;
#define DOT_STEP2(at, off) \
	DOT_STEP1(at, off)               \
	VBROADCASTSD off(DX)(AX*1), Y10; \
	VMULPD       Y10, at, Y11;       \
	VADDPD       Y11, Y9, Y9;

// All of k for one tile of the dot form, from the accumulators' seeds. Four
// steps at a time while four remain: load A[i..i+3][p..p+3], transpose the 4×4
// block in registers so that a register holds one p of all four rows, then
// step p ascending. The last k mod 4 steps gather their four A elements one by
// one.
#define DOT_TILE(vec, tail, done, STEP) \
	XORQ       AX, AX;                \
	CMPQ       AX, CX;                \
	JGE        tail;                  \
vec:                                  \
	VMOVUPD    (R8)(AX*1), Y0;        \
	VMOVUPD    (R9)(AX*1), Y1;        \
	VMOVUPD    (R10)(AX*1), Y2;       \
	VMOVUPD    (R11)(AX*1), Y3;       \
	VUNPCKLPD  Y1, Y0, Y4;            \
	VUNPCKHPD  Y1, Y0, Y5;            \
	VUNPCKLPD  Y3, Y2, Y6;            \
	VUNPCKHPD  Y3, Y2, Y7;            \
	VPERM2F128 $0x20, Y6, Y4, Y0;     \
	VPERM2F128 $0x20, Y7, Y5, Y1;     \
	VPERM2F128 $0x31, Y6, Y4, Y2;     \
	VPERM2F128 $0x31, Y7, Y5, Y3;     \
	STEP(Y0, 0)                       \
	STEP(Y1, 8)                       \
	STEP(Y2, 16)                      \
	STEP(Y3, 24)                      \
	ADDQ       $32, AX;               \
	CMPQ       AX, CX;                \
	JLT        vec;                   \
tail:                                 \
	CMPQ       AX, R12;               \
	JGE        done;                  \
	VMOVSD     (R8)(AX*1), X0;        \
	VMOVHPD    (R9)(AX*1), X0, X0;    \
	VMOVSD     (R10)(AX*1), X1;       \
	VMOVHPD    (R11)(AX*1), X1, X1;   \
	VINSERTF128 $1, X1, Y0, Y0;       \
	STEP(Y0, 0)                       \
	ADDQ       $8, AX;                \
	JMP        tail;                  \
done:

// The four finished dot products of one column (a lane is a row of the band)
// go to C[i..i+3][j], off bytes past DI, R13 bytes apart, SI two rows below
// DI: stored, or — where the mask Y14 is set — added to what C held.
#define DOT_PUT(acc, accx, off) \
	VMOVSD       off(DI), X10;             \
	VMOVHPD      off(DI)(R13*1), X10, X10; \
	VMOVSD       off(SI), X11;             \
	VMOVHPD      off(SI)(R13*1), X11, X11; \
	VINSERTF128  $1, X11, Y10, Y10;        \
	VADDPD       acc, Y10, Y10;            \
	VBLENDVPD    Y14, Y10, acc, acc;       \
	VEXTRACTF128 $1, acc, X11;             \
	VMOVLPD      accx, off(DI);            \
	VMOVHPD      accx, off(DI)(R13*1);     \
	VMOVLPD      X11, off(SI);             \
	VMOVHPD      X11, off(SI)(R13*1)

// func dotPanelAVX2(c, a, b []float64, rows, k, n int, accumulate bool)
// C[r][j] = Σ_p A[r][p]·B[j][p] (or C[r][j] += that sum) for r < rows, j < n,
// each sum from zero over p ascending. c: rows rows of C, n apart; a: rows rows
// of A, k apart; b: n rows of B, k apart; rows a positive multiple of 4; k, n ≥ 1.
// Loop order: 4-row band, pair of columns (then an odd last one), all of k.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-97
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ k+80(FP), R12
	MOVQ n+88(FP), R13
	SHLQ $3, R12
	SHLQ $3, R13
	MOVQ R12, CX // bytes of a row's leading 4·⌊k/4⌋ elements
	ANDQ $-32, CX
	VPXOR   Y14, Y14, Y14
	MOVBQZX accumulate+96(FP), AX
	TESTQ   AX, AX
	JZ      dotband
	VPCMPEQQ Y14, Y14, Y14
dotband:
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	LEAQ (DI)(R13*2), SI
	MOVQ b_base+48(FP), BX
	MOVQ n+88(FP), R15 // columns left in this band
dotpair:
	CMPQ R15, $2
	JLT  dotlast
	LEAQ (BX)(R12*1), DX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	DOT_TILE(pairvec, pairtail, pairdone, DOT_STEP2)
	DOT_PUT(Y8, X8, 0)
	DOT_PUT(Y9, X9, 8)
	LEAQ (DX)(R12*1), BX
	ADDQ $16, DI
	ADDQ $16, SI
	SUBQ $2, R15
	JMP  dotpair
dotlast:
	TESTQ R15, R15
	JZ    dotnext
	VXORPD Y8, Y8, Y8
	DOT_TILE(lastvec, lasttail, lastdone, DOT_STEP1)
	DOT_PUT(Y8, X8, 0)
	ADDQ $8, DI
dotnext:
	LEAQ (DI)(R13*2), DI // DI is one row past where the band began: three more
	ADDQ R13, DI
	LEAQ (R11)(R12*1), R8
	SUBQ $4, rows+72(FP)
	JGT  dotband
	VZEROUPPER
	RET

// The class-major form's per-class operations, for a group of 1 to 8 classes:
// CLSg applies OP(off, acc) to class j < g of the group, whose B, seed and post
// values sit 8·j bytes past the group's and whose four row lanes live in
// Y(4+j). CLSPg does the same for a pair of bands, the second band's lanes of
// class j in Y(6+j).
#define CLS1(OP) OP(0, Y4)
#define CLS2(OP) CLS1(OP) OP(8, Y5)
#define CLS3(OP) CLS2(OP) OP(16, Y6)
#define CLS4(OP) CLS3(OP) OP(24, Y7)
#define CLS5(OP) CLS4(OP) OP(32, Y8)
#define CLS6(OP) CLS5(OP) OP(40, Y9)
#define CLS7(OP) CLS6(OP) OP(48, Y10)
#define CLS8(OP) CLS7(OP) OP(56, Y11)
#define CLSP1(OP) OP(0, Y4, Y6)
#define CLSP2(OP) CLSP1(OP) OP(8, Y5, Y7)

// A class's lanes start from its seed at DX or from zero; a k-step adds the
// product of B[p][j] (at BX) and the step's row lanes in Y0 (Y1, Y2, Y3 for the
// later steps of a four-step block; Y8–Y11 for a pair's second band), rounded,
// to them; the post at DX is added to the finished sum; the lanes are stored to
// DI (a pair's second band 32 bytes on), and DI moves down to the next class's
// row of Cᵀ (R13 bytes).
#define TC_SEED(off, acc) VBROADCASTSD off(DX), acc;
#define TC_ZERO(off, acc) VXORPD acc, acc, acc;
#define TC_MA(off, at, acc) \
	VBROADCASTSD off(BX), Y12;  \
	VMULPD       Y12, at, Y13;  \
	VADDPD       Y13, acc, acc;
#define TC_S0(off, acc) TC_MA(off, Y0, acc)
#define TC_S1(off, acc) TC_MA(off, Y1, acc)
#define TC_S2(off, acc) TC_MA(off, Y2, acc)
#define TC_S3(off, acc) TC_MA(off, Y3, acc)
#define TC_POST(off, acc) VBROADCASTSD off(DX), Y12; VADDPD Y12, acc, acc;
#define TC_STORE(off, acc) VMOVUPD acc, (DI); ADDQ R13, DI;
#define TCP_SEED(off, a0, a1) VBROADCASTSD off(DX), a0; VMOVAPD a0, a1;
#define TCP_ZERO(off, a0, a1) VXORPD a0, a0, a0; VXORPD a1, a1, a1;
#define TCP_MA(off, at, bt, a0, a1) \
	VBROADCASTSD off(BX), Y12; \
	VMULPD       Y12, at, Y13; \
	VADDPD       Y13, a0, a0;  \
	VMULPD       Y12, bt, Y13; \
	VADDPD       Y13, a1, a1;
#define TCP_S0(off, a0, a1) TCP_MA(off, Y0, Y8, a0, a1)
#define TCP_S1(off, a0, a1) TCP_MA(off, Y1, Y9, a0, a1)
#define TCP_S2(off, a0, a1) TCP_MA(off, Y2, Y10, a0, a1)
#define TCP_S3(off, a0, a1) TCP_MA(off, Y3, Y11, a0, a1)
#define TCP_POST(off, a0, a1) VBROADCASTSD off(DX), Y12; VADDPD Y12, a0, a0; VADDPD Y12, a1, a1;
#define TCP_STORE(off, a0, a1) VMOVUPD a0, (DI); VMOVUPD a1, 32(DI); ADDQ R13, DI;

// A four-step block of the band at R8–R11, ix bytes into its rows: A[i..i+3]
// [p..p+3] loaded and transposed in registers (Y12–Y15 scratch) so that d0–d3
// each hold one p of the four rows. TC_G1 gathers one step's four elements
// into yd (xt scratch): the last k mod 4 steps.
#define TC_T4(ix, d0, d1, d2, d3) \
	VMOVUPD    (R8)(ix*1), d0;   \
	VMOVUPD    (R9)(ix*1), d1;   \
	VMOVUPD    (R10)(ix*1), d2;  \
	VMOVUPD    (R11)(ix*1), d3;  \
	VUNPCKLPD  d1, d0, Y12;      \
	VUNPCKHPD  d1, d0, Y13;      \
	VUNPCKLPD  d3, d2, Y14;      \
	VUNPCKHPD  d3, d2, Y15;      \
	VPERM2F128 $0x20, Y14, Y12, d0; \
	VPERM2F128 $0x20, Y15, Y13, d1; \
	VPERM2F128 $0x31, Y14, Y12, d2; \
	VPERM2F128 $0x31, Y15, Y13, d3;
#define TC_G1(ix, yd, xd, xt) \
	VMOVSD      (R8)(ix*1), xd;      \
	VMOVHPD     (R9)(ix*1), xd, xd;  \
	VMOVSD      (R10)(ix*1), xt;     \
	VMOVHPD     (R11)(ix*1), xt, xt; \
	VINSERTF128 $1, xt, yd, yd;

// All of one group of classes for the band of A at R8–R11: its lanes seeded
// (R15 = 1) or zeroed, then k in four-step blocks while four remain, each
// step p ascending through every class, then the last k mod 4 steps; the post
// added (R15 = 2); the lanes stored; SI moves past the group (bytes) and the
// next group starts. AX walks p in bytes (CX: the bytes of 4·⌊k/4⌋, R12 of
// k) and BX down B's rows (R14 apart).
#define TC_GROUP(CLS, zero, seeded, vec, tail, done, store, bytes) \
	CMPQ R15, $1;                \
	JNE  zero;                   \
	CLS(TC_SEED)                 \
	JMP  seeded;                 \
zero:                            \
	CLS(TC_ZERO)                 \
seeded:                          \
	XORQ AX, AX;                 \
	CMPQ AX, CX;                 \
	JGE  tail;                   \
vec:                             \
	TC_T4(AX, Y0, Y1, Y2, Y3)    \
	CLS(TC_S0)                   \
	ADDQ R14, BX;                \
	CLS(TC_S1)                   \
	ADDQ R14, BX;                \
	CLS(TC_S2)                   \
	ADDQ R14, BX;                \
	CLS(TC_S3)                   \
	ADDQ R14, BX;                \
	ADDQ $32, AX;                \
	CMPQ AX, CX;                 \
	JLT  vec;                    \
tail:                            \
	CMPQ AX, R12;                \
	JGE  done;                   \
	TC_G1(AX, Y0, X0, X1)        \
	CLS(TC_S0)                   \
	ADDQ R14, BX;                \
	ADDQ $8, AX;                 \
	JMP  tail;                   \
done:                            \
	CMPQ R15, $2;                \
	JNE  store;                  \
	CLS(TC_POST)                 \
store:                           \
	CLS(TC_STORE)                \
	ADDQ $bytes, SI;             \
	JMP  tcgroup;

// TC_GROUP for one or two classes over a pair of bands, the second 4·k
// elements past the first (SI walks its p, AX + 4·8·k): each broadcast of B
// serves both bands, and four add chains are in flight instead of two.
#define TC_PAIR(CLS, zero, seeded, vec, tail, done, store) \
	CMPQ R15, $1;                   \
	JNE  zero;                      \
	CLS(TCP_SEED)                   \
	JMP  seeded;                    \
zero:                               \
	CLS(TCP_ZERO)                   \
seeded:                             \
	XORQ AX, AX;                    \
	MOVQ R12, SI;                   \
	SHLQ $2, SI;                    \
	CMPQ AX, CX;                    \
	JGE  tail;                      \
vec:                                \
	TC_T4(AX, Y0, Y1, Y2, Y3)       \
	TC_T4(SI, Y8, Y9, Y10, Y11)     \
	CLS(TCP_S0)                     \
	ADDQ R14, BX;                   \
	CLS(TCP_S1)                     \
	ADDQ R14, BX;                   \
	CLS(TCP_S2)                     \
	ADDQ R14, BX;                   \
	CLS(TCP_S3)                     \
	ADDQ R14, BX;                   \
	ADDQ $32, AX;                   \
	ADDQ $32, SI;                   \
	CMPQ AX, CX;                    \
	JLT  vec;                       \
tail:                               \
	CMPQ AX, R12;                   \
	JGE  done;                      \
	TC_G1(AX, Y0, X0, X1)           \
	TC_G1(SI, Y8, X8, X9)           \
	CLS(TCP_S0)                     \
	ADDQ R14, BX;                   \
	ADDQ $8, AX;                    \
	ADDQ $8, SI;                    \
	JMP  tail;                      \
done:                               \
	CMPQ R15, $2;                   \
	JNE  store;                     \
	CLS(TCP_POST)                   \
store:                              \
	CLS(TCP_STORE)                  \
	JMP  tcpairnext;

// func tcPanelAVX2(ct, a, b, seed, post []float64, rows, k, n, ldc int)
// Cᵀ[j][r] = s + Σ_p A[r][p]·B[p][j] (+ post[j]) for r < rows, j < n: the
// product A × B stored transposed, a lane per row of A, so that the four lanes
// of a column j are one vector store into row j of Cᵀ. Each sum runs over p
// ascending from s = seed[j] (or zero when seed is empty) and then, when post
// is not empty, adds post[j]; seed and post are not both given. ct: n rows of
// Cᵀ, ldc apart, starting at the range's first column; a: rows rows of A, k
// apart; b: k rows of B, n apart, read where they lie (column j of B is every
// n-th element from b[j]); rows a positive multiple of 4; k, n ≥ 1.
//
// Loop order: 4-row band of A, group of up to 8 classes (the columns of B),
// all of k. A group keeps one class's four row lanes per register, Y4–Y11, so
// each four-step block of the band is loaded and transposed once for all the
// group's classes, and a head of up to 8 classes is one group: one transpose
// per block, and as many add chains in flight as classes.
TEXT ·tcPanelAVX2(SB), NOSPLIT, $8-152
	MOVQ a_base+24(FP), R8
	MOVQ k+128(FP), R12
	MOVQ n+136(FP), R14
	MOVQ ldc+144(FP), R13
	SHLQ $3, R12
	SHLQ $3, R14
	SHLQ $3, R13
	MOVQ R12, CX // bytes of a row's leading 4·⌊k/4⌋ elements
	ANDQ $-32, CX
	XORQ R15, R15 // 1: seed, 2: post, 0: neither; bias holds its base
	MOVQ seed_base+72(FP), DX
	CMPQ seed_len+80(FP), $0
	JEQ  tcnoseed
	MOVQ $1, R15
	JMP  tcbias
tcnoseed:
	MOVQ post_base+96(FP), DX
	CMPQ post_len+104(FP), $0
	JEQ  tcbias
	MOVQ $2, R15
tcbias:
	MOVQ DX, bias-8(SP)
tcband:
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	MOVQ ct_base+0(FP), DI
	CMPQ n+136(FP), $2
	JGT  tcsingle
	CMPQ rows+120(FP), $8
	JLT  tcsingle
	MOVQ bias-8(SP), DX
	MOVQ b_base+48(FP), BX
	CMPQ n+136(FP), $2
	JEQ  tcpair2
	TC_PAIR(CLSP1, tcp1zero, tcp1seeded, tcp1vec, tcp1tail, tcp1done, tcp1store)
tcpair2:
	TC_PAIR(CLSP2, tcp2zero, tcp2seeded, tcp2vec, tcp2tail, tcp2done, tcp2store)
tcpairnext:
	ADDQ $64, ct_base+0(FP)
	LEAQ (R11)(R12*1), R8
	MOVQ R12, AX
	SHLQ $2, AX
	ADDQ AX, R8
	SUBQ $8, rows+120(FP)
	JGT  tcband
	VZEROUPPER
	RET
tcsingle:
	XORQ SI, SI // byte offset of the group's first class in a row of B, seed and post
tcgroup:
	MOVQ n+136(FP), AX
	SHLQ $3, AX
	SUBQ SI, AX // bytes of classes left
	JLE  tcnext
	MOVQ bias-8(SP), DX
	ADDQ SI, DX
	MOVQ b_base+48(FP), BX
	ADDQ SI, BX
	CMPQ AX, $32
	JGT  tcgbig
	JEQ  tcg4
	CMPQ AX, $16
	JGT  tcg3
	JEQ  tcg2
	TC_GROUP(CLS1, tc1zero, tc1seeded, tc1vec, tc1tail, tc1done, tc1store, 8)
tcg2:
	TC_GROUP(CLS2, tc2zero, tc2seeded, tc2vec, tc2tail, tc2done, tc2store, 16)
tcg3:
	TC_GROUP(CLS3, tc3zero, tc3seeded, tc3vec, tc3tail, tc3done, tc3store, 24)
tcg4:
	TC_GROUP(CLS4, tc4zero, tc4seeded, tc4vec, tc4tail, tc4done, tc4store, 32)
tcgbig:
	CMPQ AX, $48
	JLT  tcg5
	JEQ  tcg6
	CMPQ AX, $56
	JEQ  tcg7
	TC_GROUP(CLS8, tc8zero, tc8seeded, tc8vec, tc8tail, tc8done, tc8store, 64)
tcg5:
	TC_GROUP(CLS5, tc5zero, tc5seeded, tc5vec, tc5tail, tc5done, tc5store, 40)
tcg6:
	TC_GROUP(CLS6, tc6zero, tc6seeded, tc6vec, tc6tail, tc6done, tc6store, 48)
tcg7:
	TC_GROUP(CLS7, tc7zero, tc7seeded, tc7vec, tc7tail, tc7done, tc7store, 56)
tcnext:
	ADDQ $32, ct_base+0(FP)
	LEAQ (R11)(R12*1), R8
	SUBQ $4, rows+120(FP)
	JGT  tcband
	VZEROUPPER
	RET

// The blocks of sumRowsAVX2: 1, 2, 4 or 8 vectors of dst (R8 bytes in) loaded
// into Y0–Y7, advanced by one row of src (at BX), stored back.
#define SUM_LOAD1 VMOVUPD (DI)(R8*1), Y0;
#define SUM_LOAD2 SUM_LOAD1 VMOVUPD 32(DI)(R8*1), Y1;
#define SUM_LOAD4 SUM_LOAD2 VMOVUPD 64(DI)(R8*1), Y2; VMOVUPD 96(DI)(R8*1), Y3;
#define SUM_LOAD8 SUM_LOAD4 VMOVUPD 128(DI)(R8*1), Y4; VMOVUPD 160(DI)(R8*1), Y5; VMOVUPD 192(DI)(R8*1), Y6; VMOVUPD 224(DI)(R8*1), Y7;
#define SUM_ADD1 VADDPD (BX), Y0, Y0;
#define SUM_ADD2 SUM_ADD1 VADDPD 32(BX), Y1, Y1;
#define SUM_ADD4 SUM_ADD2 VADDPD 64(BX), Y2, Y2; VADDPD 96(BX), Y3, Y3;
#define SUM_ADD8 SUM_ADD4 VADDPD 128(BX), Y4, Y4; VADDPD 160(BX), Y5, Y5; VADDPD 192(BX), Y6, Y6; VADDPD 224(BX), Y7, Y7;
#define SUM_STORE1 VMOVUPD Y0, (DI)(R8*1);
#define SUM_STORE2 SUM_STORE1 VMOVUPD Y1, 32(DI)(R8*1);
#define SUM_STORE4 SUM_STORE2 VMOVUPD Y2, 64(DI)(R8*1); VMOVUPD Y3, 96(DI)(R8*1);
#define SUM_STORE8 SUM_STORE4 VMOVUPD Y4, 128(DI)(R8*1); VMOVUPD Y5, 160(DI)(R8*1); VMOVUPD Y6, 192(DI)(R8*1); VMOVUPD Y7, 224(DI)(R8*1);

// One block of columns down all the rows (R10 of them, DX bytes apart in src),
// then R8 moves past it.
#define SUM_BLOCK(label, LOAD, ADD, STORE, bytes) \
	LOAD                 \
	LEAQ (SI)(R8*1), BX; \
	MOVQ R10, R9;        \
label:                   \
	ADD                  \
	ADDQ DX, BX;         \
	DECQ R9;             \
	JNZ  label;          \
	STORE                \
	ADDQ $bytes, R8;

// func sumRowsAVX2(dst, src []float64, rows, stride int)
// dst[j] = (…((dst[j] + src[j]) + src[stride + j]) + …) + src[(rows−1)·stride + j]
// for j < len(dst), a positive multiple of 4; rows ≥ 1. A block of columns is
// loaded from dst once, advanced down all the rows in registers and stored
// once: blocks of 32 columns (eight independent chains, enough to keep both
// add ports busy through the add latency), then one each of 16, 8 and 4 as the
// rest needs them.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), R10
	MOVQ stride+56(FP), DX
	SHLQ $3, CX
	SHLQ $3, DX
	XORQ R8, R8 // byte offset of the block's first column
sum32:
	MOVQ CX, AX
	SUBQ R8, AX // bytes left
	CMPQ AX, $256
	JLT  sum16
	SUM_BLOCK(rows32, SUM_LOAD8, SUM_ADD8, SUM_STORE8, 256)
	JMP  sum32
sum16:
	CMPQ AX, $128
	JLT  sum8
	SUM_BLOCK(rows16, SUM_LOAD4, SUM_ADD4, SUM_STORE4, 128)
	SUBQ $128, AX
sum8:
	CMPQ AX, $64
	JLT  sum4
	SUM_BLOCK(rows8, SUM_LOAD2, SUM_ADD2, SUM_STORE2, 64)
	SUBQ $64, AX
sum4:
	CMPQ AX, $32
	JLT  sumdone
	SUM_BLOCK(rows4, SUM_LOAD1, SUM_ADD1, SUM_STORE1, 32)
sumdone:
	VZEROUPPER
	RET

// func momentumAVX2(w, grad, v []float64, lr, momentum, decay float64)
// For j < len(w), a positive multiple of 4: g = grad[j] + decay·w[j],
// v[j] = momentum·v[j] − lr·g, w[j] = w[j] + v[j], grad[j] = 0 — MomentumStep's
// Go statements, one VMULPD, VADDPD or VSUBPD per operator.
TEXT ·momentumAVX2(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         v_base+48(FP), DX
	VBROADCASTSD lr+72(FP), Y13
	VBROADCASTSD momentum+80(FP), Y14
	VBROADCASTSD decay+88(FP), Y15
	VXORPD       Y12, Y12, Y12
	SHLQ         $3, CX
	XORQ         AX, AX
momloop:
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  Y0, Y15, Y1 // decay·w
	VMOVUPD (SI)(AX*1), Y2
	VADDPD  Y1, Y2, Y2  // g = grad + decay·w
	VMULPD  Y2, Y13, Y2 // lr·g
	VMOVUPD (DX)(AX*1), Y3
	VMULPD  Y3, Y14, Y3 // momentum·v
	VSUBPD  Y2, Y3, Y3  // v = momentum·v − lr·g
	VADDPD  Y3, Y0, Y0  // w + v
	VMOVUPD Y3, (DX)(AX*1)
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y12, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     momloop
	VZEROUPPER
	RET

// func reluAVX2(x []float64)
// x[j] = max(x[j], 0) with the builtin's bits on amd64, lane by lane: the mask
// of x > 0 or unordered (VCMPPD NLE_UQ against +0) AND |x| (VANDNPD of the
// sign bit). A positive lane keeps x, a NaN keeps its payload with the sign
// bit cleared (the builtin's |NaN|), and every other lane, -0 included, is
// all-zero bits: +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VBROADCASTSD signbit<>(SB), Y1
	VXORPD       Y2, Y2, Y2
reluloop:
	VMOVUPD (DI)(AX*1), Y0
	VCMPPD  $0x16, Y2, Y0, Y3
	VANDNPD Y0, Y1, Y0
	VANDPD  Y3, Y0, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluloop
	VZEROUPPER
	RET

// func reluGateAVX2(g, y []float64)
// g[j] *= 1.0 where y[j] is non-zero with the sign bit clear — as a signed
// 64-bit integer, y > 0 — and *= 0.0 elsewhere.
TEXT ·reluGateAVX2(SB), NOSPLIT, $0-48
	MOVQ g_base+0(FP), DI
	MOVQ g_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	SHLQ $3, CX
	XORQ AX, AX
	VBROADCASTSD one<>(SB), Y1
	VPXOR Y2, Y2, Y2
gateloop:
	VMOVDQU  (SI)(AX*1), Y0
	VPCMPGTQ Y2, Y0, Y0
	VPAND    Y1, Y0, Y0
	VMULPD   (DI)(AX*1), Y0, Y0
	VMOVUPD  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      gateloop
	VZEROUPPER
	RET

// func divScalarAVX2(dst []float64, s float64)
// dst[j] /= s for j < len(dst), a multiple of 4. VDIVPD is IEEE division,
// the scalar DIVSD four times over.
TEXT ·divScalarAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	SHLQ         $3, CX
	XORQ         AX, AX
divsloop:
	CMPQ    AX, CX
	JGE     divsdone
	VMOVUPD (DI)(AX*1), Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     divsloop
divsdone:
	VZEROUPPER
	RET

// func mulScalarAVX2(dst []float64, s float64)
// dst[j] *= s for j < len(dst), a multiple of 4: the scalar MULSD four times
// over.
TEXT ·mulScalarAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	SHLQ         $3, CX
	XORQ         AX, AX
mulsloop:
	CMPQ    AX, CX
	JGE     mulsdone
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     mulsloop
mulsdone:
	VZEROUPPER
	RET

// The row kernels walk a batch held as rows, [][]float64, beside a slab that
// holds or receives the same rows back to back: each row header's base and
// length are read in turn, a row's words go four at a time, then two, then
// one, and a row that is not cols long ends the walk. cols may be any count,
// zero included; so may the number of rows. Rows of a streamed batch are
// short (6 to 12 features in the learn_drift streams), so the walk, not a
// call per row, is the kernel.

// func copyRowsAVX2(dst []float64, rows [][]float64, cols int) (finite, ok bool)
// dst[r·cols + j] = rows[r][j] for every row r and j < cols (dst at least
// len(rows)·cols long), and finite reports whether every value copied was
// finite: x − x is +0, no bit set, for a finite x and a NaN for any other, and
// the differences are ORed together. ok is false, and the copy stops, at the
// first row that is not cols long.
TEXT ·copyRowsAVX2(SB), NOSPLIT, $0-58
	MOVQ   dst_base+0(FP), SI
	MOVQ   rows_base+24(FP), R8
	MOVQ   rows_len+32(FP), R9
	MOVQ   cols+48(FP), CX
	MOVQ   CX, BX
	SHLQ   $3, BX
	MOVQ   BX, DX
	ANDQ   $-32, DX
	VXORPD Y2, Y2, Y2
crrow:
	TESTQ R9, R9
	JEQ   crdone
	CMPQ  8(R8), CX
	JNE   crshort
	MOVQ  (R8), DI
	XORQ  AX, AX
cr4:
	CMPQ    AX, DX
	JGE     crtail
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD Y0, (SI)(AX*1)
	VSUBPD  Y0, Y0, Y1
	VORPD   Y1, Y2, Y2
	ADDQ    $32, AX
	JMP     cr4
crtail:
	LEAQ    16(AX), R10
	CMPQ    R10, BX
	JGT     cr1
	VMOVUPD (DI)(AX*1), X0
	VMOVUPD X0, (SI)(AX*1)
	VSUBPD  X0, X0, X1
	VORPD   Y1, Y2, Y2
	MOVQ    R10, AX
cr1:
	CMPQ   AX, BX
	JGE    crnext
	VMOVSD (DI)(AX*1), X0
	VMOVSD X0, (SI)(AX*1)
	VSUBSD X0, X0, X1
	VORPD  Y1, Y2, Y2
	ADDQ   $8, AX
	JMP    cr1
crnext:
	ADDQ BX, SI
	ADDQ $24, R8
	DECQ R9
	JMP  crrow
crshort:
	MOVB $0, ok+57(FP)
	JMP  crflag
crdone:
	MOVB $1, ok+57(FP)
crflag:
	VPTEST Y2, Y2
	SETEQ  finite+56(FP)
	VZEROUPPER
	RET

// func sameRowsAVX2(t []float64, rows [][]float64, cols int) bool
// Reports whether every row is cols long and t[r·cols + j] and rows[r][j] hold
// the same 64 bits for every row r and j < cols (t at least len(rows)·cols
// long): the words are XORed, which leaves no bit set exactly where they are
// equal, and the walk stops at the first group that differs. A float compare
// would take −0 for +0 and no NaN for equal.
TEXT ·sameRowsAVX2(SB), NOSPLIT, $0-57
	MOVQ t_base+0(FP), SI
	MOVQ rows_base+24(FP), R8
	MOVQ rows_len+32(FP), R9
	MOVQ cols+48(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX
	MOVQ BX, DX
	ANDQ $-32, DX
srrow:
	TESTQ R9, R9
	JEQ   srsame
	CMPQ  8(R8), CX
	JNE   srdiffer
	MOVQ  (R8), DI
	XORQ  AX, AX
sr4:
	CMPQ    AX, DX
	JGE     srtail
	VMOVDQU (SI)(AX*1), Y0
	VPXOR   (DI)(AX*1), Y0, Y0
	VPTEST  Y0, Y0
	JNE     srdiffer
	ADDQ    $32, AX
	JMP     sr4
srtail:
	LEAQ    16(AX), R10
	CMPQ    R10, BX
	JGT     sr1
	VMOVDQU (SI)(AX*1), X0
	VPXOR   (DI)(AX*1), X0, X0
	VPTEST  X0, X0
	JNE     srdiffer
	MOVQ    R10, AX
sr1:
	CMPQ AX, BX
	JGE  srnext
	MOVQ (SI)(AX*1), R10
	CMPQ R10, (DI)(AX*1)
	JNE  srdiffer
	ADDQ $8, AX
	JMP  sr1
srnext:
	ADDQ BX, SI
	ADDQ $24, R8
	DECQ R9
	JMP  srrow
srsame:
	MOVB $1, ret+56(FP)
	VZEROUPPER
	RET
srdiffer:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET

// The class-major column kernels (DESIGN.md, "The class head"). x is a
// classes × ld slab, a column of it one sample's classes; cols, a positive
// multiple of 4, is how many leading columns the kernel takes, four to a
// vector; classes ≥ 1. Each lane runs the scalar column loop's own
// operations in its order.

// func softmaxShiftAVX2(dst, src []float64, ld, cols, classes int)
// For every column r < cols: m = −Inf, then for each class c ascending
// m = src[c·ld + r] if that is greater (VCMPPD GT_OQ, false for a NaN, then
// VBLENDVPD: Go's if v > m); an m still −Inf becomes +0; then
// dst[c·ld + r] = src[c·ld + r] − m. dst may be src.
TEXT ·softmaxShiftAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ ld+48(FP), DX
	MOVQ cols+56(FP), R8
	MOVQ classes+64(FP), R9
	SHLQ $3, DX
	VBROADCASTSD neginf<>(SB), Y15
shiftgroup:
	VMOVAPD Y15, Y0
	MOVQ    SI, AX
	MOVQ    R9, CX
shiftmax:
	VMOVUPD   (AX), Y1
	VCMPPD    $0x1e, Y0, Y1, Y2
	VBLENDVPD Y2, Y1, Y0, Y0
	ADDQ      DX, AX
	DECQ      CX
	JNZ       shiftmax
	VCMPPD  $0x00, Y15, Y0, Y2
	VANDNPD Y0, Y2, Y0
	MOVQ    SI, AX
	MOVQ    DI, BX
	MOVQ    R9, CX
shiftsub:
	VMOVUPD (AX), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (BX)
	ADDQ    DX, AX
	ADDQ    DX, BX
	DECQ    CX
	JNZ     shiftsub
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, R8
	JGT  shiftgroup
	VZEROUPPER
	RET

// func softmaxNormAVX2(x []float64, ld, cols, classes int, u float64)
// For every column r < cols: s = +0, then s = s + x[c·ld + r] for each class c
// ascending; then x[c·ld + r] = u where s == 0 and x[c·ld + r] / s elsewhere
// (VDIVPD, the IEEE division; the quotients of a zero sum are blended away).
TEXT ·softmaxNormAVX2(SB), NOSPLIT, $0-56
	MOVQ         x_base+0(FP), SI
	MOVQ         ld+24(FP), DX
	MOVQ         cols+32(FP), R8
	MOVQ         classes+40(FP), R9
	VBROADCASTSD u+48(FP), Y15
	SHLQ         $3, DX
	VXORPD       Y14, Y14, Y14
normgroup:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R9, CX
normsum:
	VADDPD (AX), Y0, Y0
	ADDQ   DX, AX
	DECQ   CX
	JNZ    normsum
	VCMPPD $0x00, Y14, Y0, Y2
	MOVQ   SI, AX
	MOVQ   R9, CX
normdiv:
	VMOVUPD   (AX), Y1
	VDIVPD    Y0, Y1, Y1
	VBLENDVPD Y2, Y15, Y1, Y1
	VMOVUPD   Y1, (AX)
	ADDQ      DX, AX
	DECQ      CX
	JNZ       normdiv
	ADDQ $32, SI
	SUBQ $4, R8
	JGT  normgroup
	VZEROUPPER
	RET

// func argmaxColsAVX2(dst []int, x []float64, ld, cols, classes int)
// For every column r < cols: dst[r] = the first class whose x[c·ld + r] is
// greater than every earlier one's — the best value starts at class 0's and
// moves only on VCMPPD GT_OQ (so never to or from a NaN by itself: Go's
// if v > best), the index with it.
TEXT ·argmaxColsAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         ld+48(FP), DX
	MOVQ         cols+56(FP), R8
	MOVQ         classes+64(FP), R9
	SHLQ         $3, DX
	VPBROADCASTQ oneq<>(SB), Y15
argmaxgroup:
	VMOVUPD (SI), Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y3, Y3, Y3
	MOVQ    SI, AX
	MOVQ    R9, CX
	DECQ    CX
	JZ      argmaxstore
argmaxclass:
	ADDQ      DX, AX
	VPADDQ    Y15, Y3, Y3
	VMOVUPD   (AX), Y2
	VCMPPD    $0x1e, Y0, Y2, Y4
	VBLENDVPD Y4, Y2, Y0, Y0
	VBLENDVPD Y4, Y3, Y1, Y1
	DECQ      CX
	JNZ       argmaxclass
argmaxstore:
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, R8
	JGT     argmaxgroup
	VZEROUPPER
	RET
