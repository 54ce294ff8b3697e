package analysis

import "strings"

// archModelPkgs are the concrete accelerator-model packages. They are an
// implementation detail of the backend layer: everything else selects
// models by name through the asv/internal/backend registry, so experiments
// and tools stay backend-generic and a new model is one package plus one
// Register call.
var archModelPkgs = map[string]bool{
	"asv/internal/systolic": true,
	"asv/internal/eyeriss":  true,
	"asv/internal/gpu":      true,
	"asv/internal/gannx":    true,
}

// archAllowedPrefix is the one subtree that may import the models: the
// neutral interface package and its backends/ registration shim.
const archAllowedPrefix = "asv/internal/backend"

// runArchLayer (rule "archlayer") enforces the backend layering boundary (DESIGN.md §8):
// only the internal/backend subtree may import a concrete model package.
// The pre-refactor failure mode this guards against: a consumer reaching
// into one model's types (eyeriss, gpu and gannx all used to depend on
// internal/systolic for its Report), which welds every tool to every model
// and lets capability mismatches go unvalidated. Test files are exempt
// (the loader never parses them): tests may poke concrete models directly.
func runArchLayer(p *Pass) []Diagnostic {
	if p.Path == archAllowedPrefix || strings.HasPrefix(p.Path, archAllowedPrefix+"/") {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if archModelPkgs[path] {
				out = append(out, p.diag(imp.Pos(), "archlayer",
					"import of accelerator model %s outside internal/backend; depend on asv/internal/backend and select the model by name via the registry", path))
			}
		}
	}
	return out
}
