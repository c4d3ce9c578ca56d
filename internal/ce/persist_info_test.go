package ce_test

// Tests for the store's paging-support surface: artifact probing without a
// model decode (LoadModelInfo / Store.Info), size reporting in List, the
// load/save accounting a budgeted model cache sits on, and the name
// escaping that keeps every artifact inside the store.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ce"
	_ "repro/internal/ce/zoo"
)

func TestLoadModelInfoSkipsModelDecode(t *testing.T) {
	m := trainedPostgres(t, 41)
	var buf bytes.Buffer
	if err := ce.SaveModelSchema(&buf, m, "sig-a"); err != nil {
		t.Fatal(err)
	}
	name, schema, blobBytes, err := ce.LoadModelInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if name != "Postgres" || schema != "sig-a" {
		t.Fatalf("LoadModelInfo = (%q, %q), want (Postgres, sig-a)", name, schema)
	}
	if blobBytes <= 0 || blobBytes >= int64(buf.Len()) {
		t.Fatalf("blob size %d outside (0, %d)", blobBytes, buf.Len())
	}
	// Integrity failures surface identically to a full load.
	raw := buf.Bytes()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, _, err := ce.LoadModelInfo(bytes.NewReader(flipped)); !errors.Is(err, ce.ErrCorruptArtifact) {
		t.Fatalf("bit-flipped info err = %v, want ErrCorruptArtifact", err)
	}
	if _, _, _, err := ce.LoadModelInfo(bytes.NewReader(raw[:10])); !errors.Is(err, ce.ErrCorruptArtifact) {
		t.Fatalf("truncated info err = %v, want ErrCorruptArtifact", err)
	}
}

func TestStoreInfoAndEntrySize(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedPostgres(t, 42)
	path, err := store.Save("ds1", "sig-1", m)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	schema, size, err := store.Info("ds1", "Postgres")
	if err != nil {
		t.Fatal(err)
	}
	if schema != "sig-1" {
		t.Fatalf("Info schema %q, want sig-1", schema)
	}
	if size != fi.Size() {
		t.Fatalf("Info size %d, stat says %d", size, fi.Size())
	}
	if _, _, err := store.Info("ds1", "NoSuch"); err == nil {
		t.Fatal("Info for a missing artifact did not error")
	}

	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Size != fi.Size() {
		t.Fatalf("List entries %+v, want one entry of %d bytes", entries, fi.Size())
	}
}

func TestStoreStatsAccounting(t *testing.T) {
	store, err := ce.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedPostgres(t, 43)
	path, err := store.Save("ds", "sig", m)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("ds", "Postgres"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("ds", "Postgres"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("ds", "Missing"); err == nil {
		t.Fatal("loading a missing artifact did not error")
	}

	st := store.Stats()
	if st.Saves != 1 || st.SaveBytes != fi.Size() {
		t.Fatalf("save accounting %+v, want 1 save of %d bytes", st, fi.Size())
	}
	if st.Loads != 2 || st.LoadBytes != 2*fi.Size() {
		t.Fatalf("load accounting %+v, want 2 loads of %d bytes each", st, fi.Size())
	}
	if st.LoadErrors != 1 || st.Corrupt != 0 {
		t.Fatalf("error accounting %+v, want 1 load error, 0 corrupt", st)
	}
}

// TestStoreDotNamesStayInside: datasets named "." and ".." are filed in
// their own directory inside the store like any other name — Save, Load
// and List never touch the store's parent — and List names them back.
func TestStoreDotNamesStayInside(t *testing.T) {
	parent := t.TempDir()
	store, err := ce.NewStore(filepath.Join(parent, "models"))
	if err != nil {
		t.Fatal(err)
	}
	m := trainedPostgres(t, 43)
	for _, name := range []string{".", ".."} {
		path, err := store.Save(name, "sig-"+name, m)
		if err != nil {
			t.Fatalf("Save(%q): %v", name, err)
		}
		if rel, err := filepath.Rel(store.Dir(), path); err != nil || strings.HasPrefix(rel, "..") || strings.Count(filepath.ToSlash(rel), "/") != 1 {
			t.Fatalf("Save(%q) wrote %s, outside its dataset directory in the store", name, path)
		}
		if _, schema, err := store.Load(name, "Postgres"); err != nil || schema != "sig-"+name {
			t.Fatalf("Load(%q) = schema %q, %v", name, schema, err)
		}
	}
	if files, err := os.ReadDir(parent); err != nil || len(files) != 1 || files[0].Name() != "models" {
		t.Fatalf("the store's parent holds %v (%v), want just the store", files, err)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Dataset] = true
	}
	if len(entries) != 2 || !got["."] || !got[".."] {
		t.Fatalf("List = %+v, want the \".\" and \"..\" artifacts", entries)
	}
}
