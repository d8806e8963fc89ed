package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kairos/internal/fleet"
)

// TestWriteCSVReadsBack writes one dataset the way tracegen does and reads
// it back with fleet.ReadCSV: the file is <lower-case name>.csv (the suffix
// kairos watch -snapshots filters on) and holds every server and sample.
func TestWriteCSVReadsBack(t *testing.T) {
	dir := t.TempDir()
	want := fleet.Generate(fleet.Internal)
	if err := writeCSV(dir, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.ToLower(want.Name)+".csv")
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	got, err := fleet.ReadCSV(in, want.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Servers) != len(want.Servers) {
		t.Fatalf("servers = %d, want %d", len(got.Servers), len(want.Servers))
	}
	if n, w := got.Servers[0].CPU.Len(), want.Servers[0].CPU.Len(); n != w {
		t.Errorf("samples = %d, want %d", n, w)
	}
}
