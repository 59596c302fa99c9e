// Output-byte pins for the real pre- and post-processing kernels: every
// exported kernel runs on fixed inputs and its output is hashed against
// a digest written into this file. A kernel rewrite that keeps these
// digests keeps the bytes an example, a golden or a caller sees; one
// that moves a single rounding fails here by name.
package aitax_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"aitax"
	"aitax/internal/imaging"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/tensor"
	"aitax/internal/work"
)

// kernelDigests maps each kernel run to the first 16 hex digits of the
// SHA-256 of its canonical output encoding (see digest).
var kernelDigests = map[string]string{
	"ARGBToYUV":                            "4d609dd01d2b0a86",
	"ARGBToYUV/118x74":                     "f671f6d93e74188f",
	"CenterCrop":                           "04d69b8e550d8c57",
	"CropFraction":                         "26cb0e8ea937dd41",
	"DecodeBoxes/fp32":                     "8a2e4673865a4171",
	"DecodeBoxes/int8":                     "a145d0e3d3125e6c",
	"DecodeBoxes/uint8":                    "a145d0e3d3125e6c",
	"DecodeKeypoints/fp32":                 "3ae870e629609af4",
	"DecodeKeypoints/int8":                 "8c21f03a8f503a00",
	"DecodeKeypoints/uint8":                "8c21f03a8f503a00",
	"Dequantize/fp32":                      "b6bf8c262054f6e2",
	"Dequantize/int8":                      "4855152af341a16f",
	"Dequantize/uint8":                     "4855152af341a16f",
	"FlattenMask/fp32":                     "a098a5299aba6465",
	"FlattenMask/int8":                     "a098a5299aba6465",
	"FlattenMask/uint8":                    "a098a5299aba6465",
	"NMS/fp32":                             "db62cee5f96731c4",
	"NMS/int8":                             "61b42a3eef07566a",
	"NMS/uint8":                            "61b42a3eef07566a",
	"Normalize":                            "4a0971013ab32547",
	"Normalize/118x74":                     "46e37932dfe631f2",
	"QuantizeInputInt8":                    "a97114cf73f819a8",
	"QuantizeInputInt8/118x74":             "07071c0048ba6271",
	"QuantizeInputUInt8":                   "c67e336c3ba6ed15",
	"ResizeBilinear/118x74to97x33":         "3c473fcc38c87631",
	"ResizeBilinear224":                    "20483cb5e96b1bb3",
	"Rotate90x1":                           "cf24b24aee379dac",
	"Rotate90x2":                           "f3433b47e9a136e9",
	"Rotate90x3":                           "d015a5ad954365ec",
	"Softmax/fp32":                         "93d26f5086dba3fb",
	"Softmax/int8":                         "6047724ed26047ce",
	"Softmax/uint8":                        "6047724ed26047ce",
	"SpecRun/AlexNet/fp32":                 "3533b13820eca04f",
	"SpecRun/AlexNet/int8":                 "0ef189501f72406b",
	"SpecRun/Deeplab-v3 MobileNet-v2/fp32": "64e63fa1aba42e00",
	"SpecRun/Deeplab-v3 MobileNet-v2/int8": "4d7d7c972a38f60f",
	"SpecRun/EfficientNet-Lite0/fp32":      "369598f0194d133d",
	"SpecRun/EfficientNet-Lite0/int8":      "11db631b2e1f9a3b",
	"SpecRun/Inception v3/fp32":            "fcffa470dda2762d",
	"SpecRun/Inception v3/int8":            "cff0509833ebeaaf",
	"SpecRun/Inception v4/fp32":            "fcffa470dda2762d",
	"SpecRun/Inception v4/int8":            "cff0509833ebeaaf",
	"SpecRun/Mobile BERT/fp32":             "48eb1fbdf84d4d0f",
	"SpecRun/Mobile BERT/int8":             "48eb1fbdf84d4d0f",
	"SpecRun/MobileNet 1.0 v1/fp32":        "369598f0194d133d",
	"SpecRun/MobileNet 1.0 v1/int8":        "11db631b2e1f9a3b",
	"SpecRun/NasNet Mobile/fp32":           "1c088c71099a4143",
	"SpecRun/NasNet Mobile/int8":           "de45d4254df8fde2",
	"SpecRun/PoseNet/fp32":                 "09fd2fb4c174bde2",
	"SpecRun/PoseNet/int8":                 "b53a155ea5865b1c",
	"SpecRun/SSD MobileNet v2/fp32":        "4e6d3ebd7e8c6e93",
	"SpecRun/SSD MobileNet v2/int8":        "c111dbe0f98e355c",
	"SpecRun/SqueezeNet/fp32":              "1b9bf20ca52626a4",
	"SpecRun/SqueezeNet/int8":              "7f5a9c922f58e8ab",
	"SyntheticFrame":                       "4d609dd01d2b0a86",
	"SyntheticScene":                       "8f3e6a0eaafc95fb",
	"Tokenize":                             "6d9b82dae96cba56",
	"TopK/fp32":                            "92191cf78ecd3113",
	"TopK/int8":                            "352d462c667189a1",
	"TopK/uint8":                           "352d462c667189a1",
	"YUVToARGB":                            "ea63066ebf09bbd6",
	"YUVToARGB/118x74":                     "2f83769be8e87b04",
}

// digest hashes a kernel output: dimensions, dtypes and quantization
// parameters go in with the elements, floats by their IEEE bits, all
// little-endian.
func digest(v any) string {
	h := sha256.New()
	put := func(xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	f := math.Float64bits
	var enc func(v any)
	enc = func(v any) {
		switch v := v.(type) {
		case *imaging.ARGBImage:
			put(uint64(v.Width), uint64(v.Height))
			for _, p := range v.Pix {
				put(uint64(p))
			}
		case *imaging.YUVImage:
			put(uint64(v.Width), uint64(v.Height))
			h.Write(v.Y)
			h.Write(v.VU)
		case *tensor.Tensor:
			put(uint64(v.DType), uint64(len(v.Shape)))
			for _, d := range v.Shape {
				put(uint64(d))
			}
			put(f(v.Quant.Scale), uint64(v.Quant.ZeroPoint))
			for i, n := 0, v.Elems(); i < n; i++ {
				put(f(v.RawAt(i)))
			}
		case work.Work:
			vec := uint64(0)
			if v.Vectorizable {
				vec = 1
			}
			put(uint64(v.Ops), uint64(v.Bytes), vec)
		case []int:
			put(uint64(len(v)))
			for _, x := range v {
				put(uint64(x))
			}
		case []float64:
			put(uint64(len(v)))
			for _, x := range v {
				put(f(x))
			}
		case []postproc.Class:
			put(uint64(len(v)))
			for _, c := range v {
				put(uint64(c.Index), f(c.Score))
			}
		case []postproc.Box:
			put(uint64(len(v)))
			for _, b := range v {
				put(f(b.YMin), f(b.XMin), f(b.YMax), f(b.XMax), uint64(b.Class), f(b.Score))
			}
		case []postproc.Keypoint:
			put(uint64(len(v)))
			for _, k := range v {
				put(f(k.X), f(k.Y), f(k.Score))
			}
		case []any:
			for _, x := range v {
				enc(x)
			}
		default:
			panic(fmt.Sprintf("digest: unhandled %T", v))
		}
	}
	enc(v)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// kernelOutputs runs every exported kernel once on fixed inputs and
// returns the outputs by name.
func kernelOutputs(t *testing.T) map[string]any {
	t.Helper()
	out := map[string]any{}
	frame := imaging.SyntheticFrame(480, 360, 5)
	scene := imaging.SyntheticScene(480, 360, 5)
	out["SyntheticFrame"] = frame
	out["SyntheticScene"] = scene
	out["YUVToARGB"] = imaging.YUVToARGB(frame)
	out["ARGBToYUV"] = imaging.ARGBToYUV(scene)
	out["ResizeBilinear224"] = preproc.ResizeBilinear(scene, 224, 224)
	out["CenterCrop"] = preproc.CenterCrop(scene, 301, 207)
	out["CropFraction"] = preproc.CropFraction(scene, 0.875)
	for turns := 1; turns <= 3; turns++ {
		out[fmt.Sprintf("Rotate90x%d", turns)] = preproc.Rotate90(scene, turns)
	}
	out["Normalize"] = preproc.Normalize(scene, 127.5, 127.5)
	out["QuantizeInputUInt8"] = preproc.QuantizeInput(scene, tensor.UInt8,
		tensor.QuantParams{Scale: 0.0078125, ZeroPoint: 128})
	out["QuantizeInputInt8"] = preproc.QuantizeInput(scene, tensor.Int8,
		tensor.QuantParams{Scale: 1.7, ZeroPoint: -3})
	// A frame whose width is not a multiple of 8, with every byte value
	// in both planes, so clamped (out-of-gamut) pixels are pinned too.
	odd := imaging.SyntheticFrame(118, 74, 5)
	for i := range odd.Y {
		odd.Y[i] = byte(i * 7)
	}
	for i := range odd.VU {
		odd.VU[i] = byte(i*11 + 3)
	}
	oddScene := imaging.SyntheticScene(118, 74, 5)
	out["YUVToARGB/118x74"] = imaging.YUVToARGB(odd)
	out["ARGBToYUV/118x74"] = imaging.ARGBToYUV(oddScene)
	out["Normalize/118x74"] = preproc.Normalize(oddScene, 0, 255)
	out["QuantizeInputInt8/118x74"] = preproc.QuantizeInput(oddScene, tensor.Int8,
		tensor.QuantParams{Scale: 0.5, ZeroPoint: -10})
	out["ResizeBilinear/118x74to97x33"] = preproc.ResizeBilinear(oddScene, 97, 33)
	out["Tokenize"] = preproc.Tokenize("the camera app works great loving this phone qqq", preproc.BasicVocab(), 32)

	for _, m := range aitax.Models() {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Int8} {
			got, w := m.PreSpec(dt).Run(scene)
			out[fmt.Sprintf("SpecRun/%s/%v", m.Name, dt)] = []any{got, w}
		}
	}

	model := func(name string) *aitax.Model {
		m, err := aitax.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8, tensor.Int8} {
		cls := aitax.FabricateOutputs(model("MobileNet 1.0 v1"), dt, 3)[0]
		out[fmt.Sprintf("TopK/%v", dt)] = postproc.TopK(cls, 5)
		deq := postproc.Dequantize(cls)
		out[fmt.Sprintf("Dequantize/%v", dt)] = deq
		logits := make([]float64, deq.Elems())
		for i := range logits {
			logits[i] = deq.At(i)
		}
		out[fmt.Sprintf("Softmax/%v", dt)] = postproc.Softmax(logits)

		seg := aitax.FabricateOutputs(model("Deeplab-v3 MobileNet-v2"), dt, 3)[0]
		out[fmt.Sprintf("FlattenMask/%v", dt)] = postproc.FlattenMask(seg)

		ssd := aitax.FabricateOutputs(model("SSD MobileNet v2"), dt, 3)
		anchors := postproc.DefaultAnchors(26)[:ssd[1].Shape[1]]
		boxes := postproc.DecodeBoxes(ssd[0], ssd[1], anchors, 0.5)
		out[fmt.Sprintf("DecodeBoxes/%v", dt)] = boxes
		out[fmt.Sprintf("NMS/%v", dt)] = postproc.NMS(boxes, 0.5, 10)

		pose := aitax.FabricateOutputs(model("PoseNet"), dt, 3)
		out[fmt.Sprintf("DecodeKeypoints/%v", dt)] = postproc.DecodeKeypoints(pose[0], pose[1], 32)
	}
	return out
}

func TestKernelOutputBytes(t *testing.T) {
	outs := kernelOutputs(t)
	for name, v := range outs {
		got := digest(v)
		want, ok := kernelDigests[name]
		switch {
		case !ok:
			t.Errorf("%q: %q, // no digest pinned", name, got)
		case got != want:
			t.Errorf("%s: output digest %s, want %s", name, got, want)
		}
	}
	for name := range kernelDigests {
		if _, ok := outs[name]; !ok {
			t.Errorf("%s: pinned digest but no kernel run", name)
		}
	}
}
