package scenario

// Golden pins of RunOnline's rendered traces. Every line of a Render —
// header, weekly rows, the admission table, the per-shard matrix — is
// a deterministic function of the config and the seed, so a change to
// the online simulator that is meant to leave outputs alone must leave
// these bytes alone. A deliberate output change regenerates them with
//
//	go test ./internal/scenario -run TestOnlineRenderGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the online render goldens")

func TestOnlineRenderGolden(t *testing.T) {
	g := testGen(t)
	attacked := func(cfg Config) Config {
		cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
		return cfg
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"clean", smallCfg},
		{"attacked", func() Config { return attacked(smallCfg()) }},
		{"incremental", func() Config {
			cfg := attacked(smallCfg())
			cfg.Retraining = RetrainIncremental
			cfg.RetrainLag = 17
			return cfg
		}},
		{"chunked", func() Config {
			cfg := attacked(smallCfg())
			cfg.AttackChunks = 3
			return cfg
		}},
		{"roni", func() Config {
			cfg := attacked(smallCfg())
			cfg.UseRONI = true
			return cfg
		}},
		{"admission", func() Config {
			cfg := attacked(smallCfg())
			cfg.Admission = &AdmissionConfig{}
			return cfg
		}},
		{"durable", func() Config {
			cfg := attacked(durableCfg())
			cfg.Checkpoints = engine.NewMemStore()
			cfg.CheckpointEvery = 3
			cfg.CrashAtWeek = 3
			return cfg
		}},
		{"sharded_targeted", func() Config {
			cfg := attacked(shardedCfg())
			cfg.AttackRecipient = RecipientAddress(0)
			return cfg
		}},
		{"sharded_spread", func() Config { return attacked(shardedCfg()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunOnline(g, tc.cfg(), stats.NewRNG(61))
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render()
			path := filepath.Join("testdata", "online_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s render differs from %s:\n--- got\n%s--- want\n%s", tc.name, path, got, want)
			}
		})
	}
}
