package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() ([]byte, error) {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	man := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		man.Workloads = append(man.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.bound
		man.EndToEnd = append(man.EndToEnd, entry{m.name, m.unit, m.better, &b})
	}
	for _, m := range perLayer {
		man.PerLayer = append(man.PerLayer, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	b, err := json.MarshalIndent(man, "", "  ")
	return append(b, '\n'), err
}

// checkManifest verifies that BENCHMARK.json is what manifestJSON
// renders, so the driver's metric lists, units and bounds are the ones
// this program reports.
func checkManifest(path string) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	want, err := manifestJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s does not match the program's workloads and metrics; regenerate it with -manifest", path)
	}
	return nil
}
