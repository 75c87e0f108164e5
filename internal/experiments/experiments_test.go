package experiments

import (
	"strings"
	"testing"

	"freewayml/internal/stream"
)

// fastOpt keeps experiment tests quick: small batches, capped streams.
func fastOpt() Options {
	return Options{BatchSize: 48, MaxBatches: 60, Seed: 1}
}

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 grid is slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 40
	res, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"lr", "mlp"} {
		for fw, cells := range res.Rows[family] {
			for ds, c := range cells {
				if c.GAcc <= 0 || c.GAcc > 1 {
					t.Errorf("%s/%s/%s G_acc = %v", family, fw, ds, c.GAcc)
				}
				if c.SI <= 0 || c.SI > 1 {
					t.Errorf("%s/%s/%s SI = %v", family, fw, ds, c.SI)
				}
			}
		}
	}
	out := res.String()
	if !strings.Contains(out, "FreewayML") || !strings.Contains(out, "Hyperplane") {
		t.Error("String() missing expected rows")
	}
	accWins, siWins := res.FreewayWins("mlp")
	if accWins < 0 || accWins > 6 || siWins < 0 || siWins > 6 {
		t.Errorf("FreewayWins out of range: %d, %d", accWins, siWins)
	}
}

func TestTable2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 is slow")
	}
	res, err := Table2(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.String(), "Reoccurring") {
		t.Error("String() malformed")
	}
}

func TestFigure2SmallRun(t *testing.T) {
	res, err := Figure2(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != 3 {
		t.Fatalf("streams = %d", len(res.Streams))
	}
	for _, s := range res.Streams {
		if s.Graph.Len() == 0 {
			t.Errorf("%s: empty graph", s.Dataset)
		}
		if s.Correlation < -1 || s.Correlation > 1 {
			t.Errorf("%s: correlation %v", s.Dataset, s.Correlation)
		}
	}
	if !strings.Contains(res.String(), "corr") {
		t.Error("String() malformed")
	}
}

func TestFigure9SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 9 is slow")
	}
	res, err := Figure9(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.FreewayAcc) == 0 || len(s.FreewayAcc) != len(s.Strategy) || len(s.FreewayAcc) != len(s.Truth) {
			t.Errorf("%s: inconsistent series lengths", s.Dataset)
		}
	}
	var sb strings.Builder
	res.WriteCSV(&sb)
	if !strings.Contains(sb.String(), "strategy") {
		t.Error("CSV malformed")
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Error("String() malformed")
	}
}

func TestFigure11SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 11 grid is slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 40
	res, err := Figure11(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 4 {
		t.Fatalf("systems = %v", res.Systems)
	}
	wins, total := res.FreewayWinsSevere()
	if total == 0 || wins < 0 || wins > total {
		t.Errorf("wins = %d/%d", wins, total)
	}
	if !strings.Contains(res.String(), "sudden") {
		t.Error("String() malformed")
	}
}

func TestFigure10SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep is slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 5
	res, err := Figure10(opt)
	if err != nil {
		t.Fatal(err)
	}
	for family, rows := range res.Rows {
		for name, cells := range rows {
			for bs, tput := range cells {
				if tput <= 0 {
					t.Errorf("%s/%s/%d throughput = %v", family, name, bs, tput)
				}
			}
		}
	}
	if !strings.Contains(res.String(), "throughput") {
		t.Error("String() malformed")
	}
}

func TestTable3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep is slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 4
	res, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for family, rows := range res.Rows {
		for name, cells := range rows {
			for bs, c := range cells {
				if c.InferMicros <= 0 {
					t.Errorf("%s/%s/%d infer latency = %v", family, name, bs, c.InferMicros)
				}
			}
		}
	}
	if !strings.Contains(res.String(), "latency") {
		t.Error("String() malformed")
	}
}

func TestTable4(t *testing.T) {
	res, err := Table4(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Space must grow linearly with k and MLP must exceed LR.
	for i, row := range res.Rows {
		if row.MLPBytes <= row.LRBytes {
			t.Errorf("k=%d: MLP %d <= LR %d", row.K, row.MLPBytes, row.LRBytes)
		}
		if i > 0 {
			prev := res.Rows[i-1]
			wantLR := prev.LRBytes / prev.K * row.K
			if row.LRBytes != wantLR {
				t.Errorf("k=%d: LR bytes %d, want linear %d", row.K, row.LRBytes, wantLR)
			}
		}
	}
	if !strings.Contains(res.String(), "Table IV") {
		t.Error("String() malformed")
	}
}

func TestTable5SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN runs are slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 25
	res, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		wantFamily := "cnn3"
		if row.Dataset == "Animals" || row.Dataset == "Flowers" {
			wantFamily = "cnn5"
		}
		if row.FamilyUsed != wantFamily {
			t.Errorf("%s used %s", row.Dataset, row.FamilyUsed)
		}
	}
	if !strings.Contains(res.String(), "Table V") {
		t.Error("String() malformed")
	}
}

func TestTable6SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN latency sweep is slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 3
	res, err := Table6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.String(), "Table VI") {
		t.Error("String() malformed")
	}
}

func TestAblationsSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	opt := fastOpt()
	opt.MaxBatches = 40
	res, err := Ablations("Electricity", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.String(), "Ablations") {
		t.Error("String() malformed")
	}
}

func TestPearson(t *testing.T) {
	if p := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); p < 0.999 {
		t.Errorf("perfect correlation = %v", p)
	}
	if p := pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); p > -0.999 {
		t.Errorf("perfect anticorrelation = %v", p)
	}
	if p := pearson([]float64{1}, []float64{1}); p != 0 {
		t.Errorf("degenerate = %v", p)
	}
	if p := pearson([]float64{1, 1}, []float64{2, 3}); p != 0 {
		t.Errorf("zero variance = %v", p)
	}
}

func TestMeanWhere(t *testing.T) {
	vals := []float64{0.5, 0.6, 0.7}
	truth := []stream.DriftKind{stream.KindSlight, stream.KindSudden, stream.KindSlight}
	m, n := meanWhere(vals, truth, stream.KindSlight)
	if n != 2 || m != 0.6 {
		t.Errorf("meanWhere = %v/%d", m, n)
	}
	if _, n := meanWhere(vals, truth, stream.KindReoccurring); n != 0 {
		t.Errorf("absent kind n = %d", n)
	}
}

func TestRowOrderFreewayLast(t *testing.T) {
	m := map[string]map[int]Table3Cell{
		"FreewayML": {},
		"River":     {},
		"A-GEM":     {},
	}
	order := rowOrder(m)
	if order[len(order)-1] != "FreewayML" {
		t.Errorf("order = %v", order)
	}
	if order[0] != "A-GEM" {
		t.Errorf("order = %v", order)
	}
}
