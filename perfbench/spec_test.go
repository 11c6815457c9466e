package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step:
// the same workloads, and every per-layer metric a workload may leave
// idle is one the spec names.
func TestSpecMatchesProgram(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Dir(wd)); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var inSpec, inProgram []string
	for _, w := range sp.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for name := range workloads {
		inProgram = append(inProgram, name)
	}
	sort.Strings(inSpec)
	sort.Strings(inProgram)
	if len(inSpec) != len(inProgram) {
		t.Fatalf("workloads: spec %v, program %v", inSpec, inProgram)
	}
	for i := range inSpec {
		if inSpec[i] != inProgram[i] {
			t.Fatalf("workloads: spec %v, program %v", inSpec, inProgram)
		}
	}
	layers := map[string]bool{}
	for _, d := range sp.PerLayer {
		layers[d.Name] = true
	}
	for name := range zeroLayers() {
		if !layers[name] {
			t.Errorf("idle-layer metric %s is not in %s", name, specFile)
		}
	}
}
