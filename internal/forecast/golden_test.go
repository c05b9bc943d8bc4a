package forecast

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// trainAndPredict fits a fresh model of the named kind on a synthetic
// series and returns its forecasts. The config keeps the validation set
// empty (the val slice is too short for a window and MaxTrainWindows is
// below the holdout threshold), so no early-stopping comparison can branch
// on a last-bit difference: a kernel change that moves any gradient bit
// shows up in the forecasts rather than being absorbed by model selection.
func trainAndPredict(t *testing.T, modelName string) [][]float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.InputLen = 16
	cfg.Horizon = 4
	cfg.HiddenSize = 8
	cfg.Epochs = 2
	cfg.BatchSize = 8
	cfg.MaxTrainWindows = 8
	cfg.Patience = 0

	series := make([]float64, 200)
	for i := range series {
		series[i] = math.Sin(float64(i)/6) + 0.3*math.Cos(float64(i)/17)
	}
	model, err := New(modelName, cfg)
	if err != nil {
		t.Fatalf("%s: %v", modelName, err)
	}
	if err := model.Fit(series, series[:4]); err != nil {
		t.Fatalf("%s fit: %v", modelName, err)
	}
	inputs := [][]float64{series[0:16], series[50:66], series[100:116]}
	preds, err := model.Predict(inputs)
	if err != nil {
		t.Fatalf("%s predict: %v", modelName, err)
	}
	return preds
}

// goldenDeepModels are the models trained through internal/nn, in the
// order their forecasts enter the golden hash.
var goldenDeepModels = []string{"DLinear", "GRU", "Informer", "NBeats", "Transformer"}

// deepForecastGoldenAMD64 is the SHA-256 of the forecasts
// TestDeepModelForecastGolden hashes, as computed on linux/amd64. Float
// arithmetic may differ on other architectures, so the comparison runs on
// amd64 only.
const deepForecastGoldenAMD64 = "f4a8596ef979c4f1607a9d275cd4e11533014e7c1ced885628bab1a221a912c6"

// TestDeepModelForecastGolden trains every deep model on the trainAndPredict
// config and pins the bits of all their forecasts to a committed hash: any
// change to the nn kernels, fused ops, optimizer or model code that moves a
// forecast bit fails here. Each forecast is hashed as its IEEE-754 bits,
// little-endian, model by model in goldenDeepModels order. The kernels
// themselves are held to their naive reference implementations by the
// differential tests of internal/nn.
func TestDeepModelForecastGolden(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, modelName := range goldenDeepModels {
		for _, row := range trainAndPredict(t, modelName) {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	if runtime.GOARCH == "amd64" {
		if got := hex.EncodeToString(h.Sum(nil)); got != deepForecastGoldenAMD64 {
			t.Fatalf("deep-model forecasts drifted from the committed golden:\n got  %s\n want %s", got, deepForecastGoldenAMD64)
		}
	}
}
