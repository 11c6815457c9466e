package lint

import (
	"encoding/json"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// runWireCoverage verifies that every JSON-visible field of
// metrics.Report (and the structs it nests) appears as a key in the
// committed schema goldens (internal/metrics/testdata/report_schema*.json),
// so a new counter cannot ship without the serving/storage schema test
// seeing it.
//
// The config side needs no pass: config.Encode derives the memo key, the
// cluster wire spec, and the instance-pool shape from one JSON encoding of
// plain-data structs, and the runner's reflection tests pin that nothing
// is left out of it.
func runWireCoverage(a *Analysis, r *Reporter) {
	pkg := a.Mod.Lookup("internal/metrics")
	if pkg == nil {
		return
	}
	tn, ok := pkg.Types.Scope().Lookup("Report").(*types.TypeName)
	if !ok {
		return
	}
	report, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	if _, ok := report.Underlying().(*types.Struct); !ok {
		return
	}

	keys, files, err := loadSchemaKeys(pkg.Dir)
	if err != nil {
		r.Reportf(tn.Pos(), "cannot read schema goldens for metrics.Report: %v", err)
		return
	}
	if len(files) == 0 {
		r.Reportf(tn.Pos(),
			"metrics.Report has no schema golden (internal/metrics/testdata/report_schema*.json): the wire schema is unpinned")
		return
	}

	seen := make(map[*types.Named]bool)
	var visit func(named *types.Named)
	visit = func(named *types.Named) {
		if seen[named] {
			return
		}
		seen[named] = true
		for _, w := range jsonFields(named, 0) {
			if !keys[w.name] {
				r.Reportf(w.f.Pos(),
					"field %s (JSON key %q) is missing from the schema goldens (%s): regenerate them so the schema test pins the new field",
					fieldKey(w.owner, w.f.Name()), w.name, strings.Join(files, ", "))
			}
			if sub := elemStruct(w.f.Type()); sub != nil && inModule(a.Mod, sub) {
				visit(sub)
			}
		}
	}
	visit(report)
}

// jsonField is one field of a struct's JSON encoding.
type jsonField struct {
	name  string // wire name (tag name or Go name)
	f     *types.Var
	owner *types.Named
}

// jsonFields lists the JSON-visible fields of a struct: exported fields
// not tagged "-", named by their tag or Go name, with untagged embedded
// structs flattened the way encoding/json promotes their fields. (Name
// conflicts between promoted fields are not resolved: every candidate is
// listed, which can only over-report.)
func jsonFields(named *types.Named, depth int) []jsonField {
	var out []jsonField
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		if name == "-" {
			continue
		}
		if sub := asNamedStruct(f.Type()); sub != nil && f.Anonymous() && name == "" {
			if depth < 8 {
				out = append(out, jsonFields(sub, depth+1)...)
			}
			continue
		}
		if !f.Exported() {
			continue
		}
		if name == "" {
			name = f.Name()
		}
		out = append(out, jsonField{name: name, f: f, owner: named})
	}
	return out
}

// elemStruct unwraps pointers, slices, arrays, and map values down to a
// named struct type for schema descent, or nil. The bound stops
// self-referential element types.
func elemStruct(t types.Type) *types.Named {
	for range 8 {
		if named := asNamedStruct(t); named != nil {
			return named
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil
		}
	}
	return nil
}

// loadSchemaKeys reads every testdata/report_schema*.json under dir and
// returns the union of all object keys at any nesting depth.
func loadSchemaKeys(dir string) (keys map[string]bool, files []string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "testdata", "report_schema*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	keys = make(map[string]bool)
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, nil, err
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, err
		}
		collectKeys(doc, keys)
		files = append(files, filepath.Base(m))
	}
	return keys, files, nil
}

// collectKeys walks a decoded JSON value collecting every object key.
func collectKeys(doc any, keys map[string]bool) {
	switch doc := doc.(type) {
	case map[string]any:
		for k, v := range doc {
			keys[k] = true
			collectKeys(v, keys)
		}
	case []any:
		for _, v := range doc {
			collectKeys(v, keys)
		}
	}
}
