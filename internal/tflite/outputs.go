package tflite

import (
	"aitax/internal/models"
	"aitax/internal/sim"
	"aitax/internal/tensor"
)

// FabricateOutputs synthesizes plausible raw output tensors for a model
// so that the real post-processing implementations (topK, NMS, keypoint
// decode, mask flattening) have non-trivial inputs. The simulator costs
// inference in virtual time; tensors' numerical contents come from this
// seeded generator.
func FabricateOutputs(m *models.Model, dt tensor.DType, rng *sim.RNG) []*tensor.Tensor {
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	outs := make([]*tensor.Tensor, 0, len(m.OutputShapes))
	for oi, shape := range m.OutputShapes {
		var t *tensor.Tensor
		switch m.Task {
		case models.Classification, models.FaceRecognition, models.LanguageProcessing:
			t = classScores(shape, rng)
		case models.Segmentation:
			t = segScores(shape, rng)
		case models.ObjectDetection:
			if oi == 0 {
				t = boxRegressions(shape, rng)
			} else {
				t = detScores(shape, rng)
			}
		case models.PoseEstimation:
			if oi == 0 {
				t = heatmaps(shape, rng)
			} else {
				t = offsets(shape, rng)
			}
		default:
			t = tensor.New(tensor.Float32, shape)
		}
		if quant {
			t = tensor.QuantizeTensor(t, dt)
		}
		outs = append(outs, t)
	}
	return outs
}

// classScores builds a probability-like vector with a handful of strong
// peaks over low background noise.
func classScores(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	n := t.Elems()
	for i := 0; i < n; i++ {
		t.F32[i] = float32(rng.Float64() * 0.01)
	}
	for k := 0; k < 5 && k < n; k++ {
		t.F32[rng.Intn(n)] = float32(0.2 + rng.Float64()*0.8)
	}
	return t
}

// segScores builds per-pixel class scores with spatially coherent
// regions (vertical bands) so argmax masks are structured.
func segScores(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	h, w, c := shape[1], shape[2], shape[3]
	bands := 2 + rng.Intn(3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dominant := (x * bands / w) % c
			base := ((y * w) + x) * c
			for ch := 0; ch < c; ch++ {
				v := rng.Float64() * 0.2
				if ch == dominant {
					v += 0.7
				}
				t.F32[base+ch] = float32(v)
			}
		}
	}
	return t
}

func boxRegressions(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	for i := range t.F32 {
		t.F32[i] = float32(rng.Norm(0, 0.6))
	}
	return t
}

func detScores(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	n, c := shape[1], shape[2]
	for i := range t.F32 {
		t.F32[i] = float32(rng.Float64() * 0.1)
	}
	// A few confident detections.
	for k := 0; k < 8; k++ {
		anchor := rng.Intn(n)
		class := 1 + rng.Intn(c-1)
		t.F32[anchor*c+class] = float32(0.6 + rng.Float64()*0.4)
	}
	return t
}

func heatmaps(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	h, w, k := shape[1], shape[2], shape[3]
	for i := range t.F32 {
		t.F32[i] = float32(rng.Norm(-3, 1)) // low logits everywhere
	}
	for kp := 0; kp < k; kp++ {
		y, x := rng.Intn(h), rng.Intn(w)
		t.F32[((y*w)+x)*k+kp] = float32(2 + rng.Float64()*3)
	}
	return t
}

func offsets(shape tensor.Shape, rng *sim.RNG) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape)
	for i := range t.F32 {
		t.F32[i] = float32(rng.Norm(0, 4))
	}
	return t
}
