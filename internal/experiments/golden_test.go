package experiments

// Golden pins of the paper exhibits at small scale. Every exhibit is a
// deterministic function of the configuration and its seed, so a
// change that is meant to leave the reproduction alone must leave both
// the rendered text (what cmd/subvert prints) and the CSV series (what
// its -csv flag writes) byte-identical. A deliberate output change
// regenerates them with
//
//	go test ./internal/experiments -run TestExhibitGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the exhibit goldens")

// exhibit is one experiment result: its rendering and its CSV series.
type exhibit interface {
	Render() string
	CSVWriter
}

func TestExhibitGolden(t *testing.T) {
	env := smallEnv(t)
	exhibits := []struct {
		name string
		run  func(*Env) (exhibit, error)
	}{
		{"ratios", func(e *Env) (exhibit, error) { return RunTokenRatio(e) }},
		{"fig1", func(e *Env) (exhibit, error) { return RunFig1(e) }},
		{"fig2", func(e *Env) (exhibit, error) { return RunFig2(e) }},
		{"fig3", func(e *Env) (exhibit, error) { return RunFig3(e) }},
		{"fig4", func(e *Env) (exhibit, error) { return RunFig4(e) }},
		{"fig5", func(e *Env) (exhibit, error) { return RunFig5(e) }},
		{"roni", func(e *Env) (exhibit, error) { return RunRONI(e) }},
		{"informed", func(e *Env) (exhibit, error) { return RunInformed(e) }},
		{"pseudospam", func(e *Env) (exhibit, error) { return RunPseudospam(e) }},
		{"transfer", func(e *Env) (exhibit, error) { return RunTransfer(e) }},
		{"backends", func(e *Env) (exhibit, error) { return RunBackendTransfer(e) }},
	}
	t.Run("table1", func(t *testing.T) {
		checkGolden(t, "table1.golden", []byte(Table1(env.Cfg)))
	})
	for _, ex := range exhibits {
		t.Run(ex.name, func(t *testing.T) {
			res, err := ex.run(env)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, ex.name+".golden", []byte(res.Render()))
			var csv bytes.Buffer
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, ex.name+".csv", csv.Bytes())
		})
	}
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
