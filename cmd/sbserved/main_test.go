package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/stats"
)

// buildOver runs the daemon's start-up build of the default backend
// over store with a small bootstrap corpus and a persisting admission
// chain.
func buildOver(t *testing.T, store engine.SnapshotStore, shards int) (*engine.Guarded, bool, error) {
	t.Helper()
	return buildBackend(t, store, shards, "sbayes")
}

// buildBackend is buildOver with -backend backend.
func buildBackend(t *testing.T, store engine.SnapshotStore, shards int, backend string) (*engine.Guarded, bool, error) {
	t.Helper()
	b, err := engine.Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{name: "served", bootHam: 20, bootSpam: 20}
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}))
	return build(cfg, shards, b, newGenerator(), stats.NewRNG(1), chain, engine.GuardedConfig{}, store, engine.Config{Name: cfg.name})
}

// storeFiles reads every file of a DirStore's directory.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// retired seals a version-1 file, as stores were written before one
// record per save: magic ("SNAP" or "ADMS"), version 1, body, CRC-32.
func retired(magic string, body ...byte) []byte {
	b := append([]byte(magic+"\x01"), body...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestBuildRefusesStoreItCannotResume pins that start-up bootstraps
// fresh only over an empty store. A record of another shard count or
// another backend, a store whose record does not load, or a fleet
// store in the retired per-shard layout fails start-up with an error
// naming what it holds,
// and leaves every stored file as it was — bootstrapping over it would
// free held mail, refill the spent probe budget, and bury that state
// under the next save.
func TestBuildRefusesStoreItCannotResume(t *testing.T) {
	dir := t.TempDir()
	store, err := engine.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, resumed, err := buildOver(t, store, 1)
	if err != nil || resumed {
		t.Fatalf("empty store: resumed=%v err=%v, want a fresh bootstrap", resumed, err)
	}
	gen, err := engine.SaveGuarded(store, "served", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, resumed, err := buildOver(t, store, 1); err != nil || !resumed {
		t.Fatalf("same shard count: resumed=%v err=%v, want a resume", resumed, err)
	}
	saved := storeFiles(t, dir)

	t.Run("other shard count", func(t *testing.T) {
		_, _, err := buildOver(t, store, 2)
		if err == nil || !strings.Contains(err.Error(), "holds 1 shard(s), want 2") {
			t.Fatalf("2 shards over a one-shard store: err=%v, want an error naming the stored and the wanted shard counts", err)
		}
		if got := storeFiles(t, dir); !reflect.DeepEqual(got, saved) {
			t.Fatal("the refused start-up changed the store")
		}
	})

	t.Run("other backend", func(t *testing.T) {
		dir := t.TempDir()
		store, err := engine.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := buildBackend(t, store, 1, "graham")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.SaveGuarded(store, "served", g); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, dir)
		_, _, err = buildOver(t, store, 1)
		if err == nil || !strings.Contains(err.Error(), "holds graham at generation 1, not -backend sbayes") {
			t.Fatalf("-backend sbayes over a graham store: err=%v, want an error naming both backends", err)
		}
		if got := storeFiles(t, dir); !reflect.DeepEqual(got, before) {
			t.Fatal("the refused start-up changed the store")
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

	t.Run("pre-record fleet store", func(t *testing.T) {
		dir := t.TempDir()
		store, err := engine.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{"served.shard0", "served.shard1"} {
			if err := store.Write(line, 3, retired("SNAP", 6, 's', 'b', 'a', 'y', 'e', 's', 3, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Write("served.admission", 3, retired("ADMS", 3, 0)); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, dir)
		for _, shards := range []int{1, 2} {
			_, _, err := buildOver(t, store, shards)
			if err == nil || !strings.Contains(err.Error(), "retired per-shard layout") {
				t.Fatalf("%d shard(s) over a per-shard fleet store: err=%v, want an error naming the retired layout", shards, err)
			}
		}
		if got := storeFiles(t, dir); !reflect.DeepEqual(got, before) {
			t.Fatalf("the refused start-up changed the store: %v, was %v", got, before)
		}
	})
}
