package preproc

import (
	"testing"

	"aitax/internal/imaging"
)

// FuzzTokenize drives the WordPiece tokenizer with arbitrary text: it
// must never panic, always produce exactly maxLen ids, and every id must
// exist in the vocabulary.
func FuzzTokenize(f *testing.F) {
	f.Add("the camera quality is great", 32)
	f.Add("", 2)
	f.Add("zzzzzz unknown-token 🙂", 16)
	f.Add("a b c d e f g h i j k l m n o p", 8)
	vocab := BasicVocab()
	valid := map[int]bool{}
	for _, id := range vocab {
		valid[id] = true
	}
	f.Fuzz(func(t *testing.T, text string, maxLen int) {
		if maxLen < 2 || maxLen > 512 {
			maxLen = 2 + (abs(maxLen) % 511)
		}
		ids := Tokenize(text, vocab, maxLen)
		if len(ids) != maxLen {
			t.Fatalf("len = %d, want %d", len(ids), maxLen)
		}
		for _, id := range ids {
			if !valid[id] {
				t.Fatalf("id %d not in vocabulary", id)
			}
		}
		if ids[0] != vocab["[CLS]"] {
			t.Fatal("missing [CLS]")
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Guard MinInt overflow.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}

// FuzzResize drives bilinear resize with arbitrary dimensions: no
// panics, correct output size, and every pixel stays opaque.
func FuzzResize(f *testing.F) {
	f.Add(uint8(10), uint8(10))
	f.Add(uint8(1), uint8(255))
	src := imaging.SyntheticScene(37, 23, 1)
	f.Fuzz(func(t *testing.T, w, h uint8) {
		dw, dh := int(w)+1, int(h)+1
		dst := ResizeBilinear(src, dw, dh)
		if dst.Width != dw || dst.Height != dh || len(dst.Pix) != dw*dh {
			t.Fatalf("dims = %dx%d, want %dx%d", dst.Width, dst.Height, dw, dh)
		}
		for i, p := range dst.Pix {
			if p>>24 != 0xFF {
				t.Fatalf("pixel %d = %#x, not opaque", i, p)
			}
		}
	})
}
