package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the registry golden files under testdata/golden")

// TestRegistryGolden runs every registry scenario at full size and
// compares its rendered text and the SHA-256 of its JSON encoding with
// the recorded goldens. Any change to a simulated number, a column or a
// serialized field shows up here; rewriting a golden (-update) is a
// declared re-baseline.
func TestRegistryGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := Run(e.Build())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			text := res.Render()
			hash := hex.EncodeToString(sum[:]) + "\n"
			txtPath := filepath.Join(dir, e.Name+".txt")
			sumPath := filepath.Join(dir, e.Name+".json.sha256")
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(txtPath, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(sumPath, []byte(hash), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantText, err := os.ReadFile(txtPath)
			if err != nil {
				t.Fatal(err)
			}
			wantHash, err := os.ReadFile(sumPath)
			if err != nil {
				t.Fatal(err)
			}
			if text != string(wantText) {
				t.Errorf("Render() differs from %s:\n%s", txtPath, firstDiff(string(wantText), text))
			}
			if hash != string(wantHash) {
				t.Errorf("JSON SHA-256 %s, golden %s", strings.TrimSpace(hash), strings.TrimSpace(string(wantHash)))
			}
		})
	}
}

// firstDiff reports the first differing line of two renders.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
