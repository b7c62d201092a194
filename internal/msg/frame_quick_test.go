package msg

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestFrameRoundTripProperty: any message survives the TCP frame encoding.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from uint8, step int16, phase uint8, dir uint8, data []float64) bool {
		in := Message{
			From:  int(from),
			Step:  int(step),
			Phase: int(phase % 8),
			Dir:   int(dir % 8),
			Data:  data,
		}
		out, err := newFrameReader(bytes.NewReader(appendFrame(nil, in))).next()
		if err != nil {
			return false
		}
		if out.From != in.From || out.Step != in.Step || out.Phase != in.Phase || out.Dir != in.Dir {
			return false
		}
		if len(out.Data) != len(in.Data) {
			return false
		}
		for i := range in.Data {
			a, b := in.Data[i], out.Data[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
