package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// Tensor is a dense, row-major 2-D tensor over one flat float64 buffer. It is
// the compute-core representation: every nn layer, the PCA projection, and
// the ensemble fusion run on Tensors so the hot loops are contiguous slice
// sweeps instead of per-row pointer chasing. Data is always sliced to exactly
// Rows*Cols elements (spare capacity may hide behind the slice for reuse).
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor returns a zero tensor with the given shape.
func NewTensor(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic("linalg: negative tensor dimension")
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// TensorView wraps existing flat storage in a tensor header without copying.
// It panics if len(data) != rows*cols. Parameter matrices (stored flat in
// nn.Param) enter the kernels this way. It is small enough to inline (hence
// the constant message), so a header handed straight to a kernel stays on the
// caller's stack.
func TensorView(data []float64, rows, cols int) *Tensor {
	if len(data) != rows*cols {
		panic("linalg: TensorView: len(data) != rows×cols")
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// EnsureTensor returns t reshaped to rows×cols, reusing its buffer when
// capacity allows, or a fresh tensor when t is nil or too small. Element
// contents after the call are unspecified — callers overwrite. This is the
// scratch-buffer workhorse: steady-state batches hit the reuse path and
// allocate nothing.
func EnsureTensor(t *Tensor, rows, cols int) *Tensor {
	n := rows * cols
	if t == nil {
		return NewTensor(rows, cols)
	}
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
	return t
}

// Row returns row i as a slice aliasing the tensor storage.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Zero clears every element.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// FromRows reshapes t to len(rows)×cols and copies the rows in. All rows must
// have length cols; a row of another length panics (CopyRows reports it
// instead). cols disambiguates the width of an empty batch. It reports
// whether every value was finite — no NaN, no ±Inf: one walk of the rows
// copies and checks them, where a copy and a scan of t would read the batch
// twice.
func (t *Tensor) FromRows(rows [][]float64, cols int) (finite bool) {
	finite, bad := t.CopyRows(rows, cols)
	if bad >= 0 {
		panic(fmt.Sprintf("linalg: FromRows row %d has %d elements, want %d", bad, len(rows[bad]), cols))
	}
	return finite
}

// CopyRows is FromRows for rows whose widths nobody checked: the same walk
// checks each width as it copies, and bad is the index of the first row that
// is not cols long (-1 when none is), after which t's contents are
// unspecified.
func (t *Tensor) CopyRows(rows [][]float64, cols int) (finite bool, bad int) {
	*t = *EnsureTensor(t, len(rows), cols)
	finite, ok := copyRows(t.Data, rows, cols)
	if ok {
		return finite, -1
	}
	for i, r := range rows {
		if len(r) != cols {
			return false, i
		}
	}
	panic("linalg: copyRows refused rows of the right widths")
}

// SameRows reports whether t holds exactly rows, bit for bit: as many rows,
// each t.Cols wide, and at every element the same 64 bits (SameBits). One walk
// of the rows checks each width and compares its words.
func (t *Tensor) SameRows(rows [][]float64) bool {
	return t.Rows == len(rows) && sameRows(t.Data, rows, t.Cols)
}

// TransposeToRows returns the columns of t as fresh rows: one t.Cols × t.Rows
// slab, transposed from t, and its row views — two allocations whatever the
// shape. It is how a class-major slab leaves the compute core.
func (t *Tensor) TransposeToRows() [][]float64 {
	rows := &Tensor{Rows: t.Cols, Cols: t.Rows, Data: make([]float64, len(t.Data))}
	TransposeInto(rows, t)
	return rows.RowViews(nil)
}

// RowViews returns the rows of t as slices of its own storage, each capped at
// its end so an append cannot run into the next. The headers go in dst's
// buffer, which is allocated only when it is too short.
func (t *Tensor) RowViews(dst [][]float64) [][]float64 {
	if cap(dst) < t.Rows {
		dst = make([][]float64, t.Rows)
	}
	dst = dst[:t.Rows]
	for i := range dst {
		dst[i] = t.Data[i*t.Cols : (i+1)*t.Cols : (i+1)*t.Cols]
	}
	return dst
}

// sumRows is the one loop behind Vector.AddInPlace and SumRowsInto:
// dst[j] += src[r·stride + j] for j < cols, rows ascending, so an element
// that takes several rows takes them first to last. With AVX2 the leading
// 4·⌊cols/4⌋ columns stay in registers down the rows, up to 32 at a time, and
// are stored once (sumRowsAVX2); the Go loop takes the rest a row at a time.
func sumRows(dst, src []float64, rows, cols, stride int) {
	if rows == 0 {
		return
	}
	dst, src = dst[:cols], src[:(rows-1)*stride+cols]
	j := simdCols(cols)
	if j > 0 {
		sumRowsAVX2(dst[:j], src, rows, stride)
	}
	for r := 0; r < rows && j < cols; r++ {
		d := dst[j:]
		for i, v := range src[r*stride+j : r*stride+cols] {
			d[i] += v
		}
	}
}

// SumRowsInto adds the rows of t into dst, first row first:
// dst[j] = (…((dst[j] + t[0][j]) + t[1][j]) + …). It panics unless
// len(dst) == t.Cols.
func (t *Tensor) SumRowsInto(dst []float64) {
	t.mustBeRow(dst, "SumRowsInto")
	sumRows(dst, t.Data, t.Rows, t.Cols, t.Cols)
}

// MeanRowsInto sets dst to the mean of t's rows: the rows summed from zero,
// first row first (SumRowsInto), then scaled once by 1/Rows. That is Mean's
// arithmetic, so the bits are Mean's over the same rows. It panics unless
// len(dst) == t.Cols; with no rows dst is all NaN, as 0/0.
func (t *Tensor) MeanRowsInto(dst []float64) {
	t.mustBeRow(dst, "MeanRowsInto")
	clear(dst)
	sumRows(dst, t.Data, t.Rows, t.Cols, t.Cols)
	Vector(dst).ScaleInPlace(1 / float64(t.Rows))
}

func (t *Tensor) mustBeRow(v []float64, op string) {
	if len(v) != t.Cols {
		panic(fmt.Sprintf("linalg: %s vector length %d, tensor has %d columns", op, len(v), t.Cols))
	}
}

// Axpy computes y[i] += a*x[i], the product rounded before the sum. It
// panics if the lengths differ. It is GemmAdd of the 1×1 matrix a and the
// row x into the row y, through the same kernels.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	coef := [1]float64{a}
	gemmAxpyRows(y, coef[:], x, Epilogue{}, 1, len(y), 0, 1, 1, 1, true)
}

// parallelFlopCutoff is the mul-add count above which a kernel fans out
// across GOMAXPROCS goroutines, partitioned by output row; below it the
// fan-out overhead exceeds the win. Row partitioning never splits the
// per-element summation, so the parallel path is also bitwise-deterministic,
// whatever the value. (A variable only so that this package's tests can keep
// the fan-out under test at the shapes they were written for; nothing else
// writes it.)
//
// 1<<16 until PR 22. On the AVX2 kernels 1<<16 mul-adds are ~5 µs of work,
// less than the futex wake-up that hands half of them to another P, and PR 21
// measured that a larger value was faster — but the second study in a row saw
// peak RSS rise 18–25 % with it: at 2 Ps the GC's fractional mark worker gets a
// P only when a goroutine parks, and a loop that allocated 1.15 GB/s needed
// the fan-out's wg.Wait for that. With the snapshot plane's garbage gone
// (PR 22: 737 → ~200 B allocated per row) the study was repeated, medians of
// six 24 s runs of benchmark/run.sh per value, order rotated per round,
// 2-vCPU host, uncontended-host time:
//
//	cutoff  learn_drift samples_per_s / peak_rss_mb  serve_read_hot train_p50_ms
//	1<<16   1737.3 k rows/s (IQR 1.1 %) / 64.5 MiB   0.2510
//	1<<18   1816.1 k (+4.5 %, 5 of 6)   / 67.4 (+4.4 %) 0.2540
//	1<<20   1814.1 k (+4.4 %, 6 of 6)   / 66.0 (+2.3 %) 0.2478
//
// and, two rounds each, serve_ingest 457.0 k → 522.9 k rows/s (+14 %;
// train_p50_ms 0.354 → 0.311, peak_rss_mb 39.6 → 39.4) and routed_json_mix
// unchanged. A lone caller on an idle host gains most: traced probes at
// 1<<16 → 1<<20 read linalg.gemm_gflops 10.0–10.4 → 13.6–17.2,
// nn.mlp_forward_us 69–70 → 45, core.infer_us 162–167 → 97–100. 1<<20 clears
// the bar that was set for it (throughput beyond the spread, peak RSS within
// +3 %), 1<<18 does not (RSS). At 1<<20 no GEMM of the 64-wide MLPs on
// batches ≤ 256 fans out (the widest input, 12 features, makes the first
// layer 256·12·64 = 0.20 M, and Covertype's generator has 10: 0.16 M);
// the CNN families' convolutions still do.
var parallelFlopCutoff = 1 << 20

// parallelRows splits [0, rows) into roughly equal chunks of a multiple of 4
// rows (54 → 28 + 26, not 27 + 27) and runs body on each chunk, in parallel
// when flops crosses the cutoff: one goroutine per chunk, joined by a
// WaitGroup.
func parallelRows(rows, flops int, body func(i0, i1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelFlopCutoff || workers <= 1 || rows <= 1 {
		body(0, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	if chunk >= 4 {
		// Cut at whole 4-row bands (and so whole row pairs): a cut elsewhere
		// ends every worker's range in a partial band, which costs the axpy
		// panel up to a whole band's time and the dot form a scalar loop.
		// Matrices of a few very long rows keep the even split instead.
		chunk = (chunk + 3) &^ 3
	}
	var wg sync.WaitGroup
	for i0 := 0; i0 < rows; i0 += chunk {
		i1 := i0 + chunk
		if i1 > rows {
			i1 = rows
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			body(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// gemmOp validates the operands of one kernel form and runs it.
func gemmOp(form gemmForm, op string, c, a, b *Tensor, e Epilogue, accumulate bool) {
	m, k, n := gemmDims(form, op, c, a, b)
	e.check(op, m, n)
	gemm(form, c.Data, a.Data, b.Data, e, m, k, n, accumulate)
}

// Gemm computes C = A × B with the register-tiled kernel (gemm.go),
// parallel above the flop cutoff. Shapes: A m×k, B k×n, C m×n; C must not
// alias A or B.
func Gemm(c, a, b *Tensor) { gemmOp(formNN, "Gemm", c, a, b, Epilogue{}, false) }

// GemmAdd computes C += A × B (same shapes and kernel as Gemm).
func GemmAdd(c, a, b *Tensor) { gemmOp(formNN, "GemmAdd", c, a, b, Epilogue{}, true) }

// GemmWith computes C = e(A × B): Gemm with the epilogue e at the store of
// every element. A seeding Bias gives the bits of copying it into each row
// and calling GemmAdd; BiasLast, ReLU and Gate those of Gemm followed by the
// same passes over C — without the passes. It panics unless the epilogue fits
// C (len(Bias) = C.Cols, len(Gate) = len(C.Data)).
func GemmWith(c, a, b *Tensor, e Epilogue) { gemmOp(formNN, "GemmWith", c, a, b, e, false) }

// GemmTA computes C = Aᵀ × B without materializing the transpose.
// Shapes: A k×m, B k×n, C m×n; C must not alias A or B.
func GemmTA(c, a, b *Tensor) { gemmOp(formTA, "GemmTA", c, a, b, Epilogue{}, false) }

// GemmTAAdd computes C += Aᵀ × B (same shapes as GemmTA). The backward
// passes use it to accumulate weight gradients straight into Param.Grad.
func GemmTAAdd(c, a, b *Tensor) { gemmOp(formTA, "GemmTAAdd", c, a, b, Epilogue{}, true) }

// GemmTAWith computes C = e(Aᵀ × B), GemmTA with the epilogue e (as GemmWith).
func GemmTAWith(c, a, b *Tensor, e Epilogue) { gemmOp(formTA, "GemmTAWith", c, a, b, e, false) }

// GemmTBAdd computes C += A × Bᵀ without materializing the transpose.
// Shapes: A m×k, B n×k, C m×n; C must not alias A or B. Each output element
// is a dot product of two contiguous rows, summed from zero and added to C
// once: the long-dot-product form of a weight-gradient update.
func GemmTBAdd(c, a, b *Tensor) { gemmOp(formTB, "GemmTBAdd", c, a, b, Epilogue{}, true) }

// GemmTC computes Cᵀ = (A × B)ᵀ into ct, the product stored class-major:
// A m×k, B k×n (read where it lies), ct n×m; ct must not alias A or B. The
// bias of e (its Bias and BiasLast; ReLU and Gate are not offered) goes in
// as GemmWith puts it: every sum starts from Bias[j], or Bias[j] is added to
// the finished sum. Each element is GemmWith's, bit for bit, at the
// transposed place.
func GemmTC(ct, a, b *Tensor, e Epilogue) {
	m, k, n := gemmDims(formNN, "GemmTC", &Tensor{Rows: ct.Cols, Cols: ct.Rows, Data: ct.Data}, a, b)
	e.check("GemmTC", m, n)
	if e.ReLU || e.Gate != nil {
		panic("linalg: GemmTC has no ReLU or gate")
	}
	var seed, post []float64
	if e.BiasLast {
		post = e.Bias
	} else {
		seed = e.Bias
	}
	gemmTC(ct.Data, a.Data, b.Data, seed, post, m, k, n)
}

// TransposeInto writes srcᵀ into dst, which must be pre-shaped to
// src.Cols × src.Rows: a layer's Out × In weight panel for its input
// gradient, and a class-major slab turned back into rows at the boundary.
// Four rows of src go at a time, so that each column of theirs lands as four
// neighbours in a row of dst.
func TransposeInto(dst, src *Tensor) {
	transposeInto(dst, src, "TransposeInto", false)
}

// AddTransposedInto adds srcᵀ into dst, one add per element: dst[j][i] =
// dst[j][i] + src[i][j]. dst must be shaped src.Cols × src.Rows. It is how a
// gradient computed transposed joins its parameter's.
func AddTransposedInto(dst, src *Tensor) {
	transposeInto(dst, src, "AddTransposedInto", true)
}

func transposeInto(dst, src *Tensor, op string, add bool) {
	r, c := src.Rows, src.Cols
	if dst.Rows != c || dst.Cols != r {
		panic(fmt.Sprintf("linalg: %s shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, c, r))
	}
	s, d := src.Data[:r*c], dst.Data[:r*c]
	i := 0
	for ; i+4 <= r; i += 4 {
		s0 := s[i*c : (i+1)*c]
		s1 := s[(i+1)*c : (i+2)*c][:len(s0)]
		s2 := s[(i+2)*c : (i+3)*c][:len(s0)]
		s3 := s[(i+3)*c : (i+4)*c][:len(s0)]
		for j, v := range s0 {
			o := d[j*r+i : j*r+i+4]
			if add {
				o[0], o[1], o[2], o[3] = o[0]+v, o[1]+s1[j], o[2]+s2[j], o[3]+s3[j]
			} else {
				o[0], o[1], o[2], o[3] = v, s1[j], s2[j], s3[j]
			}
		}
	}
	for ; i < r; i++ {
		for j, v := range s[i*c : (i+1)*c] {
			if add {
				d[j*r+i] += v
			} else {
				d[j*r+i] = v
			}
		}
	}
}
