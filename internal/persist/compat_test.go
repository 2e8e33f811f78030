package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"p2b/internal/server"
)

// testdata/centroid-era/checkpoint.ckpt was written by a p2bnode started
// with -k 4 -arms 2 -d 2 -shards 1, from the last version whose server
// state still carried a per-tuple centroid accumulator ("cent":null on
// every node, which never sets a decoder). json.Unmarshal ignores the
// retired field, so such checkpoints keep loading and importing.
func TestCheckpointWithRetiredCentroidFieldImports(t *testing.T) {
	dir := filepath.Join("testdata", "centroid-era")
	ckpt, err := LoadCheckpoint(dir)
	if err != nil || ckpt == nil {
		t.Fatalf("LoadCheckpoint = %v, %v", ckpt, err)
	}
	srv := server.New(server.Config{K: 4, Arms: 2, D: 2, Alpha: 1})
	if err := srv.ImportState(ckpt.Server); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.TuplesIngested != 8 || st.RawIngested != 1 {
		t.Fatalf("imported stats = %+v, want 8 tuples and 1 raw", st)
	}

	// Re-exporting yields the stored server state minus the retired field,
	// byte for byte.
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Server json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal(raw[ckptHeaderLen:], &body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body.Server, []byte(`,"cent":null`)) {
		t.Fatalf("fixture does not carry the retired field: %s", body.Server)
	}
	want := bytes.Replace(body.Server, []byte(`,"cent":null`), nil, 1)
	got, err := json.Marshal(srv.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-export differs:\n got %s\nwant %s", got, want)
	}
}
