package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"freewayml/internal/baselines"
	"freewayml/internal/core"
	"freewayml/internal/datasets"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
	"freewayml/internal/stream"
)

// perfSystems lists the systems of the performance experiments per family.
func perfSystems(family string) []string {
	if family == "lr" {
		return append(append([]string{}, baselines.LRBaselines()...), "FreewayML")
	}
	return append(append([]string{}, baselines.MLPBaselines()...), "FreewayML")
}

// buildSystem constructs either a baseline or FreewayML for a perf run.
func buildSystem(name, family string, dim, classes int, opt Options) (System, error) {
	if name == "FreewayML" {
		l, err := core.NewLearner(experimentCoreConfig(family, opt), dim, classes)
		if err != nil {
			return nil, err
		}
		return freewaySystem{l: l}, nil
	}
	return newBaselineSystem(name, family, dim, classes, opt)
}

// Figure10Result reproduces Figure 10: throughput (samples/second) vs batch
// size on the Hyperplane stream for the LR and MLP families.
type Figure10Result struct {
	BatchSizes []int
	// Rows maps family → system → batch size → samples/second.
	Rows map[string]map[string]map[int]float64
}

// Figure10 measures throughput over the paper's batch-size sweep 256-2048.
func Figure10(opt Options) (*Figure10Result, error) {
	sizes := []int{256, 512, 1024, 2048}
	res := &Figure10Result{BatchSizes: sizes, Rows: map[string]map[string]map[int]float64{}}
	for _, family := range []string{"lr", "mlp"} {
		res.Rows[family] = map[string]map[int]float64{}
		for _, name := range perfSystems(family) {
			res.Rows[family][name] = map[int]float64{}
			for _, bs := range sizes {
				o := opt
				o.BatchSize = bs
				src, err := datasets.Build("Hyperplane", bs, o.Seed)
				if err != nil {
					return nil, err
				}
				sys, err := buildSystem(name, family, src.Dim(), src.Classes(), o)
				if err != nil {
					return nil, err
				}
				maxBatches := o.MaxBatches
				if maxBatches <= 0 {
					maxBatches = 30
				}
				items := 0
				start := time.Now()
				for n := 0; n < maxBatches; n++ {
					b, ok := src.Next()
					if !ok {
						break
					}
					if _, err := sys.Step(b); err != nil {
						return nil, err
					}
					items += len(b.X)
				}
				if c, ok := sys.(interface{ Close() error }); ok {
					if err := c.Close(); err != nil {
						return nil, err
					}
				}
				res.Rows[family][name][bs] = metrics.Throughput(items, time.Since(start))
			}
		}
	}
	return res, nil
}

// String renders throughput rows.
func (r *Figure10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: throughput (samples/s) vs batch size on Hyperplane\n")
	for _, family := range []string{"lr", "mlp"} {
		label := "StreamingLR"
		if family == "mlp" {
			label = "StreamingMLP"
		}
		fmt.Fprintf(&sb, "\n%s:\n%-12s", label, "Framework")
		for _, bs := range r.BatchSizes {
			fmt.Fprintf(&sb, " | %9d", bs)
		}
		sb.WriteByte('\n')
		for _, name := range perfSystems(family) {
			fmt.Fprintf(&sb, "%-12s", name)
			for _, bs := range r.BatchSizes {
				fmt.Fprintf(&sb, " | %9.0f", r.Rows[family][name][bs])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Table3Cell is one latency measurement in microseconds: the mean (the
// paper's headline number) plus tail percentiles from the fixed-bucket
// latency histogram behind metrics.LatencyTracker.
type Table3Cell struct {
	UpdateMicros float64
	InferMicros  float64

	UpdateP50 float64
	UpdateP95 float64
	UpdateP99 float64
	InferP50  float64
	InferP95  float64
	InferP99  float64
}

// cellFrom assembles a Table3Cell from the two phase trackers.
func cellFrom(trainLat, inferLat *metrics.LatencyTracker) Table3Cell {
	return Table3Cell{
		UpdateMicros: trainLat.MeanMicros(),
		InferMicros:  inferLat.MeanMicros(),
		UpdateP50:    trainLat.P50Micros(),
		UpdateP95:    trainLat.P95Micros(),
		UpdateP99:    trainLat.P99Micros(),
		InferP50:     inferLat.P50Micros(),
		InferP95:     inferLat.P95Micros(),
		InferP99:     inferLat.P99Micros(),
	}
}

// Table3Result reproduces Table III: update and inference latency (µs) per
// batch size for the LR and MLP families.
type Table3Result struct {
	BatchSizes []int
	// Rows maps family → system → batch size → cell.
	Rows map[string]map[string]map[int]Table3Cell
}

// Table3 measures per-phase latency over the paper's 512-4096 sweep.
func Table3(opt Options) (*Table3Result, error) {
	return latencyTable([]string{"lr", "mlp"}, perfSystems, opt)
}

// latencyTable is shared by Table III (LR/MLP) and Table VI (CNN).
func latencyTable(families []string, systemsOf func(string) []string, opt Options) (*Table3Result, error) {
	sizes := []int{512, 1024, 2048, 4096}
	res := &Table3Result{BatchSizes: sizes, Rows: map[string]map[string]map[int]Table3Cell{}}
	for _, family := range families {
		res.Rows[family] = map[string]map[int]Table3Cell{}
		for _, name := range systemsOf(family) {
			res.Rows[family][name] = map[int]Table3Cell{}
			for _, bs := range sizes {
				o := opt
				o.BatchSize = bs
				cell, err := measureLatency(name, family, bs, o)
				if err != nil {
					return nil, err
				}
				res.Rows[family][name][bs] = cell
			}
		}
	}
	return res, nil
}

// measureLatency times Infer and Train separately. FreewayML exposes only
// the fused Process step, so its phases are measured through a dedicated
// learner whose infer and train we call via the core API.
func measureLatency(name, family string, batchSize int, opt Options) (Table3Cell, error) {
	src, err := datasets.Build("Hyperplane", batchSize, opt.Seed)
	if err != nil {
		return Table3Cell{}, err
	}
	maxBatches := opt.MaxBatches
	if maxBatches <= 0 {
		maxBatches = 20
	}
	var inferLat, trainLat metrics.LatencyTracker

	if name == "FreewayML" {
		cfg := experimentCoreConfig(family, opt)
		l, err := core.NewLearner(cfg, src.Dim(), src.Classes())
		if err != nil {
			return Table3Cell{}, err
		}
		for n := 0; n < maxBatches; n++ {
			b, ok := src.Next()
			if !ok {
				break
			}
			// Inference phase: Process on the unlabeled view.
			unlabeled := stream.Batch{Seq: b.Seq, X: b.X, Truth: b.Truth}
			start := time.Now()
			if _, err := l.Process(context.Background(), unlabeled); err != nil {
				return Table3Cell{}, err
			}
			inferLat.Add(time.Since(start))
			// Training phase: Process on the labeled batch (its inference
			// cost is subtracted using the unlabeled measurement).
			start = time.Now()
			if _, err := l.Process(context.Background(), b); err != nil {
				return Table3Cell{}, err
			}
			full := time.Since(start)
			train := full - time.Duration(inferLat.MeanMicros()*1000)
			if train < 0 {
				train = 0
			}
			trainLat.Add(train)
		}
		if err := l.Close(); err != nil {
			return Table3Cell{}, err
		}
		return cellFrom(&trainLat, &inferLat), nil
	}

	h := model.DefaultHyper()
	h.Seed = opt.Seed
	factory, err := model.FactoryFor(family, h)
	if err != nil {
		return Table3Cell{}, err
	}
	fw, err := baselines.Build(name, factory, src.Dim(), src.Classes())
	if err != nil {
		return Table3Cell{}, err
	}
	for n := 0; n < maxBatches; n++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		start := time.Now()
		if _, err := fw.Infer(b); err != nil {
			return Table3Cell{}, err
		}
		inferLat.Add(time.Since(start))
		start = time.Now()
		if err := fw.Train(b); err != nil {
			return Table3Cell{}, err
		}
		trainLat.Add(time.Since(start))
	}
	return cellFrom(&trainLat, &inferLat), nil
}

// String renders the latency table in the paper's layout.
func (r *Table3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table III: latency (µs) vs batch size on Hyperplane\n")
	families := make([]string, 0, len(r.Rows))
	for _, f := range []string{"lr", "mlp", "cnn3"} {
		if _, ok := r.Rows[f]; ok {
			families = append(families, f)
		}
	}
	for _, phase := range []string{"update", "infer"} {
		for _, family := range families {
			fmt.Fprintf(&sb, "\n%s_%s:\n%-12s", strings.ToUpper(family), phase, "Framework")
			for _, bs := range r.BatchSizes {
				fmt.Fprintf(&sb, " | %8d", bs)
			}
			sb.WriteByte('\n')
			for _, name := range rowOrder(r.Rows[family]) {
				fmt.Fprintf(&sb, "%-12s", name)
				for _, bs := range r.BatchSizes {
					c := r.Rows[family][name][bs]
					v := c.UpdateMicros
					if phase == "infer" {
						v = c.InferMicros
					}
					fmt.Fprintf(&sb, " | %8.0f", v)
				}
				sb.WriteByte('\n')
			}
		}
	}
	// Tail latency at the largest batch size: the histogram percentiles
	// behind the means above (the steady-state SLO view of the same run).
	if len(r.BatchSizes) > 0 {
		bs := r.BatchSizes[len(r.BatchSizes)-1]
		for _, phase := range []string{"update", "infer"} {
			for _, family := range families {
				fmt.Fprintf(&sb, "\n%s_%s tail latency (µs, batch %d):\n%-12s | %8s | %8s | %8s\n",
					strings.ToUpper(family), phase, bs, "Framework", "p50", "p95", "p99")
				for _, name := range rowOrder(r.Rows[family]) {
					c := r.Rows[family][name][bs]
					p50, p95, p99 := c.UpdateP50, c.UpdateP95, c.UpdateP99
					if phase == "infer" {
						p50, p95, p99 = c.InferP50, c.InferP95, c.InferP99
					}
					fmt.Fprintf(&sb, "%-12s | %8.0f | %8.0f | %8.0f\n", name, p50, p95, p99)
				}
			}
		}
	}
	return sb.String()
}

// rowOrder returns system names with FreewayML last, others alphabetical.
func rowOrder(m map[string]map[int]Table3Cell) []string {
	var names []string
	for name := range m {
		if name != "FreewayML" {
			names = append(names, name)
		}
	}
	sortStrings(names)
	if _, ok := m["FreewayML"]; ok {
		names = append(names, "FreewayML")
	}
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Table4Row is the knowledge space overhead for one k.
type Table4Row struct {
	K        int
	LRBytes  int
	MLPBytes int
}

// Table4Result reproduces Table IV: space overhead of historical knowledge
// for k preserved models, LR vs MLP.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 measures snapshot sizes directly: k snapshots of each family's
// model on the Hyperplane shape (10 features, 2 classes).
func Table4(opt Options) (*Table4Result, error) {
	const dim, classes = 10, 2
	sizes := map[string]int{}
	for _, family := range []string{"lr", "mlp"} {
		h := model.DefaultHyper()
		h.Seed = opt.Seed
		factory, err := model.FactoryFor(family, h)
		if err != nil {
			return nil, err
		}
		m, err := factory(dim, classes)
		if err != nil {
			return nil, err
		}
		sizes[family] = len(m.Net().AppendSnapshot(nil))
	}
	res := &Table4Result{}
	for _, k := range []int{1, 5, 10, 40, 100} {
		res.Rows = append(res.Rows, Table4Row{
			K:        k,
			LRBytes:  k * sizes["lr"],
			MLPBytes: k * sizes["mlp"],
		})
	}
	return res, nil
}

// String renders the space table in KB, as the paper reports it.
func (r *Table4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table IV: space overhead of historical knowledge\n")
	fmt.Fprintf(&sb, "%5s | %10s | %10s\n", "k", "LR (KB)", "MLP (KB)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%5d | %10.1f | %10.1f\n",
			row.K, float64(row.LRBytes)/1024, float64(row.MLPBytes)/1024)
	}
	return sb.String()
}
