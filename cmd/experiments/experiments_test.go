package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestEveryExperimentRuns runs each table entry into a sha256 hash, so
// the entries' gates (crash-restore identity, the hetero imbalance
// ceiling, autoscale beating static ranks and shrinking under collapse,
// sweep replay byte-identity, convergence) fail here with the entry's
// error, and every output but speed-table's must hash to its pin.
func TestEveryExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Fatalf("experiment %q is listed twice", e.name)
		}
		seen[e.name] = true
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			if err := e.run(h); err != nil {
				t.Fatal(err)
			}
			// speed-table's machine rows are wall clock, and the pins
			// are amd64's: other architectures fuse multiply-adds.
			if e.name == "speed-table" || runtime.GOARCH != "amd64" {
				return
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinned[e.name] {
				t.Errorf("output hashes to %s, pinned %s", got, pinned[e.name])
			}
		})
	}
	for name := range pinned {
		if !seen[name] {
			t.Errorf("pinned %q is not in the experiments table", name)
		}
	}
}

// pinned is the sha256 of each entry's output on amd64. An entry whose
// bytes change on purpose gets its new hash here, with the reason in
// the change's description.
var pinned = map[string]string{
	"ablation":    "6c486ff15423ad6d008b171949d5a6d6d3dd6673dada8aee071c33eb5fae5641",
	"acoustics":   "82d5c66fb5befdbc0ba9023ce8222eaca94410c57d201395bf96c1f3814a1f71",
	"autoscale":   "377b197715cea3189ee19863dd90e46c2aeb69b4f2edf9dc030dcd5b4d19a0bc",
	"balancing":   "8a584b022c34920efbcc772d093172f7d20a164c4e9d23c62d16f49e29442209",
	"convergence": "36a87d041579dcc11917dacae9f2e70e775a2c08cdcc6ae485c25826bf69cdbf",
	"crash":       "571c17e0b186e3f95f6aea5a9ba0dd8b0b23309a3f092d54fe971a079ca42618",
	"farm":        "a3b59562047674944f7c4bd2a99e745e7c4e81711b04b8452d04db877d372e9d",
	"fig10":       "ee07c3f5b35161f78c443ad24d8d5b7dd01dea9d69b1ed7195f37e56db7a5b5d",
	"fig11":       "506ec36e46947fecdb57e3daa89dd5cf8c694148ff812e04eb39ee984e35742f",
	"fig12":       "04646058adf2ef18d76e6690559af38ebb0b9c7b42675886922fe32734bb02fb",
	"fig13":       "86f3e06594598d29138d3538e02c4c06ee5048a9f6fbf8b394425df999dd7782",
	"fig2":        "3ab791f2cd9bd3ba72dc59e8a1e4e2f4383b3631f5e18b31bf452d7752d6febb",
	"fig5":        "8a4682e7cee2b64a6555dee311578edf9d07028b4271516c98cbf842b8323977",
	"fig6":        "ba05ce62bd6d83ef8e1fa164ba8bba02c1f9c089c522753c08adb6829ed79f29",
	"fig7":        "f6439492c8f7617c655eac5e0b65f540fad827d51eb72d84b3f29735b0a8b582",
	"fig8":        "308a33d0f66488c1de93148f7958cf79c27ae0265630913c6051a59c59b39716",
	"fig9":        "2861365bec673f4b3ff014a408465f7d6d6b2e671d60709c1bada548ff37da7f",
	"hetero":      "663e119acc787289efd612199e84c6f4851be832532f31d51eee6fa0d7f7b4cd",
	"migration":   "33d481f8a7b2dc801451d60c73322099151e5eba6654fa6272c199313079d898",
	"mtable":      "c6bdfd927fd0dda05286d746f08b4dd8fcf9741ece4f9e9631f9cdd74c60a837",
	"networks":    "e417718bfffa51e68014ca2e4b0a3f0cd1e1b3215ce6ee9d0a6ac17e2b15fe1c",
	"reclaim":     "1026de5bc54e6fa7b6ec1ebf7895c6175898a57467e4601cda78112a4875ef83",
	"sweep":       "395f9e698d7e6ac209d53089361a29b33e7bea184e02526a94f9098a21917d61",
}

// TestFig2ActiveSubregions pins figure 2's count for this geometry:
// geom.FluePipeChannel at 240x160 leaves 23 of the (6 x 4) subregions
// active where the paper's drawing leaves 15 (DESIGN.md, the fig2 row).
func TestFig2ActiveSubregions(t *testing.T) {
	var b strings.Builder
	if err := fig2(&b); err != nil {
		t.Fatal(err)
	}
	const want = "decomposition (6 x 4): 23 active subregions, 1 inactive (all wall)\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("fig2 output lacks %q", want)
	}
}

// TestDesignIndexNamesEveryExperiment: DESIGN.md's per-experiment index
// has one row per table entry, with the entry's name and paper source,
// and no row for a name the table lacks.
func TestDesignIndexNamesEveryExperiment(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "| Experiment | Paper source | Code |\n")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index table")
	}
	index := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, " | ")
		name, opened := strings.CutPrefix(cells[0], "| `")
		name, closed := strings.CutSuffix(name, "`")
		if opened && closed && len(cells) == 3 {
			index[name] = cells[1]
		}
	}
	for _, e := range experiments {
		src, ok := index[e.name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md's index has no row for %q", e.name)
		case src != e.source:
			t.Errorf("DESIGN.md's index gives %q the source %q; the table says %q", e.name, src, e.source)
		}
		delete(index, e.name)
	}
	for name := range index {
		t.Errorf("DESIGN.md's index names %q, which is not in the experiments table", name)
	}
}
