package experiments

import (
	"fmt"
	"strings"

	"freewayml/internal/datasets"
)

// Table5Row is one dataset's StreamingCNN-vs-FreewayML comparison.
type Table5Row struct {
	Dataset     string
	PlainGAcc   float64
	PlainSI     float64
	FreewayGAcc float64
	FreewaySI   float64
	FamilyUsed  string
}

// Table5Result reproduces appendix Table V: accuracy of StreamingCNN vs
// FreewayML across the six benchmark datasets (3-layer CNN) plus the two
// image-feature streams (5-layer CNN).
type Table5Result struct {
	Rows []Table5Row
}

// cnnFamilyFor selects the paper's architecture per dataset: cnn3 for the
// tabular benchmarks, cnn5 for the image-feature streams.
func cnnFamilyFor(dataset string) string {
	if dataset == "Animals" || dataset == "Flowers" {
		return "cnn5"
	}
	return "cnn3"
}

// Table5Datasets lists the appendix's eight datasets in table order.
func Table5Datasets() []string {
	return append(append([]string{}, datasets.Benchmark6()...), "Animals", "Flowers")
}

// Table5 runs the plain streaming CNN and FreewayML-CNN over all eight
// datasets.
func Table5(opt Options) (*Table5Result, error) {
	res := &Table5Result{}
	for _, ds := range Table5Datasets() {
		family := cnnFamilyFor(ds)

		src, err := datasets.Build(ds, opt.BatchSize, opt.Seed)
		if err != nil {
			return nil, err
		}
		plainSys, err := newBaselineSystem("Plain", family, src.Dim(), src.Classes(), opt)
		if err != nil {
			return nil, err
		}
		plain, err := RunPrequential(plainSys, src, opt.MaxBatches)
		if err != nil {
			return nil, err
		}

		src2, err := datasets.Build(ds, opt.BatchSize, opt.Seed)
		if err != nil {
			return nil, err
		}
		fw, err := newFreewaySystem(family, src2.Dim(), src2.Classes(), opt)
		if err != nil {
			return nil, err
		}
		freeway, err := RunPrequential(fw, src2, opt.MaxBatches)
		if err != nil {
			return nil, err
		}

		res.Rows = append(res.Rows, Table5Row{
			Dataset:     ds,
			PlainGAcc:   plain.GAcc(),
			PlainSI:     plain.SI(),
			FreewayGAcc: freeway.GAcc(),
			FreewaySI:   freeway.SI(),
			FamilyUsed:  family,
		})
	}
	return res, nil
}

// String renders the appendix table.
func (r *Table5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table V: StreamingCNN vs FreewayML (appendix)\n")
	fmt.Fprintf(&sb, "%-12s | %-5s | %-18s | %-18s\n", "Dataset", "Arch", "StreamingCNN", "FreewayML")
	fmt.Fprintf(&sb, "%-12s | %-5s | %8s %8s | %8s %8s\n", "", "", "G_acc", "SI", "G_acc", "SI")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s | %-5s | %7.2f%% %8.3f | %7.2f%% %8.3f\n",
			row.Dataset, row.FamilyUsed,
			100*row.PlainGAcc, row.PlainSI, 100*row.FreewayGAcc, row.FreewaySI)
	}
	return sb.String()
}

// Figure12 reproduces appendix Figure 12: per-mechanism CNN accuracy series
// on the four real datasets plus Animals and Flowers.
func Figure12(opt Options) (*Figure9Result, error) {
	real4, err := mechanismSeries(datasets.Real4(), "cnn3", opt)
	if err != nil {
		return nil, err
	}
	images, err := mechanismSeries([]string{"Animals", "Flowers"}, "cnn5", opt)
	if err != nil {
		return nil, err
	}
	real4.Series = append(real4.Series, images.Series...)
	real4.family = "cnn3"
	return real4, nil
}

// Table6Row is one batch size's CNN latency comparison.
type Table6Row struct {
	BatchSize           int
	PlainInferMicros    float64
	FreewayInferMicros  float64
	PlainUpdateMicros   float64
	FreewayUpdateMicros float64
}

// Table6Result reproduces appendix Table VI: CNN latency of the plain
// streaming CNN vs FreewayML; the paper's claim is an overhead below ~5%.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 measures CNN3 latency on Hyperplane over the 512-4096 sweep.
func Table6(opt Options) (*Table6Result, error) {
	res := &Table6Result{}
	for _, bs := range []int{512, 1024, 2048, 4096} {
		o := opt
		o.BatchSize = bs
		plain, err := measureLatency("Plain", "cnn3", bs, o)
		if err != nil {
			return nil, err
		}
		freeway, err := measureLatency("FreewayML", "cnn3", bs, o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table6Row{
			BatchSize:           bs,
			PlainInferMicros:    plain.InferMicros,
			FreewayInferMicros:  freeway.InferMicros,
			PlainUpdateMicros:   plain.UpdateMicros,
			FreewayUpdateMicros: freeway.UpdateMicros,
		})
	}
	return res, nil
}

// String renders the CNN latency comparison.
func (r *Table6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table VI: CNN latency (µs), StreamingCNN vs FreewayML\n")
	fmt.Fprintf(&sb, "%9s | %-23s | %-23s\n", "Batch", "Infer (plain / FwML)", "Update (plain / FwML)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%9d | %10.0f / %10.0f | %10.0f / %10.0f\n",
			row.BatchSize,
			row.PlainInferMicros, row.FreewayInferMicros,
			row.PlainUpdateMicros, row.FreewayUpdateMicros)
	}
	return sb.String()
}
