package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
)

func loadTestManager() *core.Manager {
	cfg := core.Config{
		Services:  []core.ServiceConfig{{Name: "svc", QoSTargetMs: 5, MaxLoadRPS: 1000}},
		MaxPowerW: 100,
		Agent: bdq.AgentConfig{
			Spec:      bdq.Spec{SharedHidden: []int{16, 12}, BranchHidden: 8},
			BatchSize: 8,
			Seed:      1,
		},
	}
	return core.NewManager(cfg, []int{0, 1, 2, 3, 4, 5, 6, 7})
}

// TestLoadIntoRejectsNonCheckpoint: -load accepts only checkpoints; any
// other file fails with an error that names it.
func TestLoadIntoRejectsNonCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"empty.bin":   nil,
		"weights.gob": []byte("\x1f\xff\x81\x02\x01\x01\x0eparam snapshot"),
		"text.txt":    []byte("not a checkpoint at all\n"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := loadInto(loadTestManager(), path)
		if err == nil {
			t.Fatalf("%s: loadInto accepted a non-checkpoint file", name)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a twig checkpoint") {
			t.Fatalf("%s: error %q does not name the file as a non-checkpoint", name, err)
		}
	}
}

// TestLoadIntoRestoresCheckpoint: a file written like -save loads back.
func TestLoadIntoRestoresCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mgr.twig")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadTestManager().SaveCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := loadInto(loadTestManager(), path); err != nil {
		t.Fatalf("loadInto(%s) = %v", path, err)
	}
}
