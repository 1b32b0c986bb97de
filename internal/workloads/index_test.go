package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// indexPins are the SHA-256 digests of each generator's encoded global
// index for ranks 0–7 (see TestGeneratorIndexBytes).
var indexPins = map[string]string{
	"pixie3d-small":       "c3cc726b36aa3d2146c783f9b936444b43119122fea8543f53bfe09a7089ef24",
	"pixie3d-large":       "9da6cf9102f08ccb8c1821aa0c6199b44ed4b88e387f741fa2961e842937593a",
	"pixie3d-extra large": "273bc843f1c1d5209304eaebc82c596f0c1228c223a0539323dcdc7566f8e219",
	"xgc1":                "8ebe266b09b6b9d68e2dc7a421886f9d76e4865408bacfc688fb1a80a324f0af",
	"gtc":                 "e5961d147d0c05c7f879a5a1f54ca89ae78ecae49412ad3a26a910f8555bbe44",
	"gts":                 "bd96dd448b0c7cc8b6b690cbc3f50c0c4bdcb90de210d8d67b0f328bedeef6d9",
	"chimera":             "f88d50a2275eee0549b02d0bfdcfe86f07cd084ba212831c4dc7c1a04732b600",
	"s3d":                 "4bb5827f466795bcb56c9c0e0311cc2a3a89fb257e71181e483217ac2d803bc1",
	"mltrain":             "47b62ac8c981c88ab52ed927e98b69057113bcbba91047dd3d062ae2eb6306d8",
	"mdtest":              "4a77864f39bc1238be564b21297fe4b4481bc3382796ea2729055f43688e5016",
}

// TestGeneratorIndexBytes pins every generator's index bytes: ranks 0–7
// log one block each through StepResult.AddBlock, alternating between two
// created files at contiguous offsets, and the encoded global index must
// hash to the generator's pin. Names, sizes, dims and every rank's Min/Max
// all reach the encoding, so any drift in a generator's layout or
// characteristics shows here.
func TestGeneratorIndexBytes(t *testing.T) {
	for _, g := range All() {
		var steps iomethod.Steps[iomethod.Step]
		var st iomethod.Step
		steps.Open(simkernel.New(), &st, &st, "pin", 8, []string{"pin.0.bp", "pin.1.bp"})
		st.Res.AddFile(0)
		st.Res.AddFile(1)
		var off [2]int64
		for rank := range 8 {
			d := g.PerRank(rank)
			st.Res.AddBlock(rank%2, rank, off[rank%2], d)
			off[rank%2] += d.TotalBytes()
		}
		enc, err := st.Res.Index().Encode()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if got := st.Res.GlobalIndexLen(); got != int64(len(enc)) {
			t.Errorf("%s: logged index length %d, encoded %d bytes", g.Name, got, len(enc))
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != indexPins[g.Name] {
			t.Errorf("%s: index sha256 %s, want %s", g.Name, got, indexPins[g.Name])
		}
	}
}

// TestByNameAllocatesNothing guards the per-point setup cost: a scenario
// resolves its generator by name at every grid point, so the lookup must
// build no shape and no table.
func TestByNameAllocatesNothing(t *testing.T) {
	got := testing.AllocsPerRun(100, func() {
		if _, err := ByName("pixie3d-xl"); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", got)
	}
}
