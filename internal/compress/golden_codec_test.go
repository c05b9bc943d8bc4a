package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lossyts/internal/datasets"
)

// codecGoldenAMD64 is the SHA-256 over every built-in codec's batch payload
// and reconstruction: for the six paper datasets at scale 0.02, seed 1
// (Names order), then every registered method with a built-in wire code
// (sorted), then ε ∈ {0.01, 0.1, 0.5}, the hash takes the payload bytes and
// then each decoded value's IEEE-754 bits, little-endian. S-PMC runs with
// the dataset's seasonal period. Computed on linux/amd64; float arithmetic
// may differ elsewhere, so the comparison runs on amd64 only.
const codecGoldenAMD64 = "bc91a55af2f5e66a729745742adcef4fe6c0008e22439c8c7976ee64081a15fa"

// TestCodecGolden pins every byte the codecs write and every bit they
// reconstruct, so a refactor of the encode or decode paths cannot drift.
func TestCodecGolden(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, name := range datasets.Names {
		ds, err := datasets.Load(name, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := ds.Target()
		for _, m := range Registered() {
			if reg, _ := lookup(m); reg.Code >= 64 {
				continue // test codecs use the external code range
			}
			comp, err := New(m)
			if m == MethodSeasonalPMC {
				comp, err = SeasonalPMC{Period: ds.SeasonalPeriod}, nil
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.01, 0.1, 0.5} {
				c, err := comp.Compress(s, eps)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, m, eps, err)
				}
				h.Write(c.Payload)
				values, err := c.AppendValues(nil)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, m, eps, err)
				}
				if len(values) != s.Len() {
					t.Fatalf("%s/%s/%v: decoded %d values, want %d", name, m, eps, len(values), s.Len())
				}
				for _, v := range values {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	if runtime.GOARCH == "amd64" {
		if got := hex.EncodeToString(h.Sum(nil)); got != codecGoldenAMD64 {
			t.Fatalf("codec payloads or reconstructions drifted from the committed golden:\n got  %s\n want %s", got, codecGoldenAMD64)
		}
	}
}
