package baselines

import (
	"fmt"

	"freewayml/internal/model"
)

// Build constructs a baseline by its paper name with default parameters:
// "Flink ML", "Spark MLlib", "Alink", "River", "Camel", "A-GEM", or
// "Plain" (the mechanism-free streaming model).
func Build(name string, factory model.Factory, dim, classes int) (Framework, error) {
	switch name {
	case "Flink ML":
		return NewFlinkML(factory, dim, classes, 2)
	case "Spark MLlib":
		return NewSparkMLlib(factory, dim, classes, 4)
	case "Alink":
		return NewAlink(factory, dim, classes, 1e-5)
	case "River":
		return NewRiver(factory, dim, classes, nil)
	case "Camel":
		return NewCamel(factory, dim, classes, 0.6, 2048)
	case "A-GEM":
		return NewAGEM(factory, dim, classes, 2048, 256, 1)
	case "Plain":
		return NewPlain(factory, dim, classes)
	default:
		return nil, fmt.Errorf("baselines: unknown framework %q", name)
	}
}

// LRBaselines lists the frameworks compared for StreamingLR in Table I.
func LRBaselines() []string { return []string{"Flink ML", "Spark MLlib", "Alink"} }

// MLPBaselines lists the frameworks compared for StreamingMLP in Table I.
func MLPBaselines() []string { return []string{"River", "Camel", "A-GEM"} }
