package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"elevprivacy/internal/ml/linalg"
)

// Model persistence: a tiny container format shared by the classifiers.
// A file is a JSON header (model kind + config) followed by raw float64
// parameter blocks, so a trained attack can be saved once and reloaded
// without retraining.
//
// Layout:
//
//	magic "ELPV" | uint32 header length | header JSON |
//	uint32 block count | per block: uint64 length | float64 values (LE)

const persistMagic = "ELPV"

// Header identifies the serialized model.
type Header struct {
	// Kind is the model type ("cnn", "mlp", "svm").
	Kind string `json:"kind"`
	// Config is the model's own configuration, marshaled by the caller.
	Config json.RawMessage `json:"config"`
}

// WriteModel serializes a header plus parameter blocks.
func WriteModel(w io.Writer, h Header, blocks ...[]float64) error {
	if h.Kind == "" {
		return fmt.Errorf("ml: empty model kind")
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("ml: marshaling header: %w", err)
	}
	if _, err := io.WriteString(w, persistMagic); err != nil {
		return fmt.Errorf("ml: writing magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return fmt.Errorf("ml: writing header length: %w", err)
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ml: writing header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(blocks))); err != nil {
		return fmt.Errorf("ml: writing block count: %w", err)
	}
	for i, block := range blocks {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(block))); err != nil {
			return fmt.Errorf("ml: writing block %d length: %w", i, err)
		}
		buf := make([]byte, 8*len(block))
		for j, v := range block {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("ml: writing block %d: %w", i, err)
		}
	}
	return nil
}

// RowBlocks exposes a matrix as per-row parameter blocks (shared views, not
// copies) for WriteModel, keeping the on-disk layout of models that
// historically saved one block per row.
func RowBlocks(m *linalg.Matrix) [][]float64 {
	return m.RowSlices()
}

// MatrixFromBlocks reassembles row blocks read by ReadModel into a matrix,
// validating that every block has the expected width. The widths are
// checked before the matrix is allocated, so its size is bounded by the
// blocks actually read rather than by a header's claimed width.
func MatrixFromBlocks(blocks [][]float64, cols int) (*linalg.Matrix, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("ml: no blocks")
	}
	if cols < 1 {
		return nil, fmt.Errorf("ml: block width %d", cols)
	}
	for i, b := range blocks {
		if len(b) != cols {
			return nil, fmt.Errorf("ml: block %d has %d values, want %d", i, len(b), cols)
		}
	}
	m := linalg.NewMatrix(len(blocks), cols)
	for i, b := range blocks {
		copy(m.Row(i), b)
	}
	return m, nil
}

// maxBlockLen bounds a parameter block read from disk (64M values = 512 MB),
// protecting against corrupt headers.
const maxBlockLen = 64 << 20

// ReadModel parses a serialized model, returning the header and blocks.
func ReadModel(r io.Reader) (Header, [][]float64, error) {
	var h Header
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return h, nil, fmt.Errorf("ml: reading magic: %w", err)
	}
	if !bytes.Equal(magic, []byte(persistMagic)) {
		return h, nil, fmt.Errorf("ml: not a model file (magic %q)", magic)
	}
	var hdrLen uint32
	if err := binary.Read(r, binary.LittleEndian, &hdrLen); err != nil {
		return h, nil, fmt.Errorf("ml: reading header length: %w", err)
	}
	if hdrLen > 1<<20 {
		return h, nil, fmt.Errorf("ml: implausible header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return h, nil, fmt.Errorf("ml: reading header: %w", err)
	}
	if err := json.Unmarshal(hdr, &h); err != nil {
		return h, nil, fmt.Errorf("ml: parsing header: %w", err)
	}

	var blockCount uint32
	if err := binary.Read(r, binary.LittleEndian, &blockCount); err != nil {
		return h, nil, fmt.Errorf("ml: reading block count: %w", err)
	}
	if blockCount > 1<<16 {
		return h, nil, fmt.Errorf("ml: implausible block count %d", blockCount)
	}
	blocks := make([][]float64, 0, blockCount)
	for i := uint32(0); i < blockCount; i++ {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return h, nil, fmt.Errorf("ml: reading block %d length: %w", i, err)
		}
		if n > maxBlockLen {
			return h, nil, fmt.Errorf("ml: implausible block length %d", n)
		}
		buf := make([]byte, 8*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return h, nil, fmt.Errorf("ml: reading block %d: %w", i, err)
		}
		block := make([]float64, n)
		for j := range block {
			block[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		blocks = append(blocks, block)
	}
	return h, blocks, nil
}
