package main

import (
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/stats"
)

// buildOver runs the daemon's start-up build over store with a small
// bootstrap corpus and a persisting admission chain.
func buildOver(t *testing.T, store engine.SnapshotStore, shards int) (*engine.Guarded, bool, error) {
	t.Helper()
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{name: "served", bootHam: 20, bootSpam: 20}
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}))
	return build(cfg, shards, b, newGenerator(), stats.NewRNG(1), chain, engine.GuardedConfig{}, store, engine.Config{Name: cfg.name})
}

// TestBuildRefusesStoreItCannotResume pins that start-up bootstraps
// fresh only over an empty store. A store written with another shard
// count, or one whose snapshot does not load, fails start-up with an
// error naming what it holds — bootstrapping over it would free held
// mail, refill the spent probe budget, and overwrite the sidecar at
// the next save.
func TestBuildRefusesStoreItCannotResume(t *testing.T) {
	store := engine.NewMemStore()
	g, resumed, err := buildOver(t, store, 1)
	if err != nil || resumed {
		t.Fatalf("empty store: resumed=%v err=%v, want a fresh bootstrap", resumed, err)
	}
	gen, err := engine.SaveGuarded(store, "served", "sbayes", g)
	if err != nil {
		t.Fatal(err)
	}
	sidecar, err := store.Read(engine.AdmissionSnapshotName("served"), gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, resumed, err := buildOver(t, store, 1); err != nil || !resumed {
		t.Fatalf("same shard count: resumed=%v err=%v, want a resume", resumed, err)
	}

	t.Run("other shard count", func(t *testing.T) {
		_, _, err := buildOver(t, store, 2)
		if err == nil || !strings.Contains(err.Error(), "[served]") || !strings.Contains(err.Error(), "served.shard1") {
			t.Fatalf("2 shards over a one-shard store: err=%v, want an error naming the stored and the wanted lines", err)
		}
		if got, err := store.Read(engine.AdmissionSnapshotName("served"), gen); err != nil || string(got) != string(sidecar) {
			t.Fatalf("the refused start-up touched the sidecar (err %v)", err)
		}
	})

	t.Run("no loadable generation", func(t *testing.T) {
		data, err := store.Read("served", gen)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := store.Write("served", gen, data); err != nil {
			t.Fatal(err)
		}
		_, _, err = buildOver(t, store, 1)
		if err == nil || !strings.Contains(err.Error(), "does not resume") {
			t.Fatalf("corrupt-only store: err=%v, want a resume failure", err)
		}
	})
}
