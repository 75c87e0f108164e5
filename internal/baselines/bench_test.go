package baselines

import (
	"math/rand"
	"testing"

	"freewayml/internal/model"
)

// benchFramework measures one prequential step per framework on a
// 256-sample, 6-feature, 3-class batch.
func benchFramework(b *testing.B, name string) {
	b.Helper()
	h := model.DefaultHyper()
	f, err := model.FactoryFor("mlp", h)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := Build(name, f, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := separable(rng, 256, 6, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Infer(batch); err != nil {
			b.Fatal(err)
		}
		if err := fw.Train(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlinkMLStep(b *testing.B) { benchFramework(b, "Flink ML") }
func BenchmarkSparkStep(b *testing.B)   { benchFramework(b, "Spark MLlib") }
func BenchmarkAlinkStep(b *testing.B)   { benchFramework(b, "Alink") }
func BenchmarkRiverStep(b *testing.B)   { benchFramework(b, "River") }
func BenchmarkCamelStep(b *testing.B)   { benchFramework(b, "Camel") }
func BenchmarkAGEMStep(b *testing.B)    { benchFramework(b, "A-GEM") }
