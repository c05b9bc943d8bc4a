package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

//go:embed testdata/golden.json
var embeddedGolden []byte

// goldenFile holds the expected output hashes of seed 1, keyed by GOARCH,
// then size ("full" or "small"), then workload, then output name. Float
// arithmetic can differ across architectures, so each one has its own set;
// an architecture without an entry checks invariants only.
type goldenFile map[string]map[string]map[string]map[string]string

// loadGolden reads the golden file at path, or the embedded copy of
// testdata/golden.json when path is empty.
func loadGolden(path string) (goldenFile, error) {
	raw := embeddedGolden
	if path != "" {
		var err error
		if raw, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	g := goldenFile{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden file %q: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) lookup(arch, size, workload string) map[string]string {
	return g[arch][size][workload]
}

func (g goldenFile) set(arch, size, workload string, outputs map[string]string) {
	if g[arch] == nil {
		g[arch] = map[string]map[string]map[string]string{}
	}
	if g[arch][size] == nil {
		g[arch][size] = map[string]map[string]string{}
	}
	g[arch][size][workload] = outputs
}

// recordGolden merges one workload's observed hashes into the golden file
// at path, creating it if needed.
func recordGolden(path, arch, size, workload string, outputs map[string]string) error {
	g, err := loadGolden(path)
	if errors.Is(err, fs.ErrNotExist) {
		g, err = goldenFile{}, nil
	}
	if err != nil {
		return err
	}
	g.set(arch, size, workload, outputs)
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
