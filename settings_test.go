package jitgc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jitgc/internal/array"
	"jitgc/internal/core"
	"jitgc/internal/predictor"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/tenant"
	"jitgc/internal/workload"
)

// settingsPath holds the inventory TestSettingsInventory checks.
var settingsPath = filepath.Join("testdata", "settings.txt")

// TestSettingsInventory lists every independently settable value of the
// public and configuration surface — the exported fields of the facade's
// option structs, the simulator, array, tenant, predictor, policy, binlog
// and workload configurations and every workload generator — and holds the
// list to testdata/settings.txt, so a new knob shows up as a reviewed diff.
// Nested structs of this module are walked field by field; durations,
// pointers, slices, maps, funcs and interfaces are one setting each.
// Regenerate with `go test -run TestSettingsInventory -update .`.
func TestSettingsInventory(t *testing.T) {
	roots := []any{
		Options{}, PolicySpec{},
		sim.Config{}, array.Config{}, tenant.Config{}, core.JITOptions{},
		binlog.Options{}, workload.Params{},
	}
	for _, g := range workload.All() {
		roots = append(roots, g)
	}
	roots = append(roots, workload.NewFileChurn(0), workload.NewLogStructured(0),
		predictor.Buffered{}, core.JITGC{})

	var b strings.Builder
	n := 0
	for _, r := range roots {
		typ := reflect.TypeOf(r)
		n += listSettings(&b, typ.String(), typ)
	}
	fmt.Fprintf(&b, "%d settings\n", n)
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(settingsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(settingsPath)
	if err != nil {
		t.Fatalf("missing settings inventory (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("settings inventory changed; review the diff and regenerate with -update\n got:\n%s\nwant:\n%s", got, want)
	}
}

// listSettings writes one line per exported field of struct type typ,
// prefixed by path, descending into this module's nested structs, and
// returns how many it wrote.
func listSettings(b *strings.Builder, path string, typ reflect.Type) int {
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		name := path + "." + f.Name
		if pkg := f.Type.PkgPath(); f.Type.Kind() == reflect.Struct &&
			(pkg == "jitgc" || strings.HasPrefix(pkg, "jitgc/")) {
			n += listSettings(b, name, f.Type)
			continue
		}
		fmt.Fprintf(b, "%s %s\n", name, f.Type)
		n++
	}
	return n
}
