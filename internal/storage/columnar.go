package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sqltypes"
)

// Columnar page format (pageTypeColumnar): cells are stored
// column-major so a sealed page can materialize straight into the
// vectorized executor's column vectors, and low-NDV columns (DGE tags,
// lane/flowcell ids, quality bins — the structured genomics columns of
// Campagne et al.) carry dictionary or run-length codes that predicates
// evaluate without decompressing. Each column independently picks the
// smallest of three encodings:
//
//	uvarint colCount, rowCount
//	per column:
//	    enc    byte (0 = flat, 1 = dict, 2 = rle)
//	    nulls  byte (0/1); if 1: ceil(rows/8) bitmap bytes
//	    flat:  per non-null row, the cell image
//	           (int varint | float 8B | bool 1B | text uvarint len + bytes)
//	    dict:  uvarint dictCount; per entry uvarint len + image;
//	           per row uvarint code (null rows repeat the previous code
//	           so they never break a run)
//	    rle:   dict header as above; uvarint runCount;
//	           per run uvarint code, uvarint length
const pageTypeColumnar = 3

const (
	colEncFlat = 0
	colEncDict = 1
	colEncRLE  = 2
)

// EncodeColumnarPage encodes rows column-major, or returns nil (no
// error) when the image cannot beat limit bytes.
func EncodeColumnarPage(kinds []sqltypes.Kind, rows []sqltypes.Row, limit int) ([]byte, error) {
	nCols, nRows := len(kinds), len(rows)
	out := binary.AppendUvarint(nil, uint64(nCols))
	out = binary.AppendUvarint(out, uint64(nRows))
	var images [][]byte // per-row images of the current column
	for c := 0; c < nCols; c++ {
		images = images[:0]
		hasNulls := false
		for r, row := range rows {
			if len(row) != nCols {
				return nil, fmt.Errorf("storage: row %d has %d columns, want %d", r, len(row), nCols)
			}
			v := row[c]
			if v.IsNull() {
				images = append(images, nil)
				hasNulls = true
				continue
			}
			if v.K != kinds[c] {
				return nil, fmt.Errorf("storage: row %d col %d kind %s != %s", r, c, v.K, kinds[c])
			}
			images = append(images, cellImage(nil, v))
		}
		out = encodeColumn(out, kinds[c], images, hasNulls, nRows)
		if len(out) > limit {
			return nil, nil
		}
	}
	return out, nil
}

// encodeColumn appends one column in the smallest of the three encodings.
func encodeColumn(out []byte, kind sqltypes.Kind, images [][]byte, hasNulls bool, nRows int) []byte {
	// Dictionary assignment in first-appearance order; null rows inherit
	// the previous row's code so interleaved nulls don't break runs (the
	// null bitmap is authoritative, the code under a null is filler).
	dictIdx := make(map[string]int32)
	var dict [][]byte
	codes := make([]int32, nRows)
	prev := int32(0)
	flatSize := 0
	for r, img := range images {
		if img == nil {
			codes[r] = prev
			continue
		}
		code, ok := dictIdx[string(img)]
		if !ok {
			code = int32(len(dict))
			dictIdx[string(img)] = code
			dict = append(dict, img)
		}
		codes[r] = code
		prev = code
		flatSize += len(img)
		if isTextKind(kind) {
			flatSize += uvarintLen(uint64(len(img)))
		}
	}
	dictHdr := uvarintLen(uint64(len(dict)))
	for _, e := range dict {
		dictHdr += uvarintLen(uint64(len(e))) + len(e)
	}
	dictSize := dictHdr
	for _, c := range codes {
		dictSize += uvarintLen(uint64(c))
	}
	rleSize := dictHdr
	nRuns := 0
	for r := 0; r < nRows; {
		e := r + 1
		for e < nRows && codes[e] == codes[r] {
			e++
		}
		rleSize += uvarintLen(uint64(codes[r])) + uvarintLen(uint64(e-r))
		nRuns++
		r = e
	}
	rleSize += uvarintLen(uint64(nRuns))

	enc := byte(colEncFlat)
	best := flatSize
	if dictSize < best {
		enc, best = colEncDict, dictSize
	}
	if rleSize < best {
		enc = colEncRLE
	}

	out = append(out, enc)
	if hasNulls {
		out = append(out, 1)
		at := len(out)
		for i := 0; i < (nRows+7)/8; i++ {
			out = append(out, 0)
		}
		for r, img := range images {
			if img == nil {
				out[at+r/8] |= 1 << uint(r%8)
			}
		}
	} else {
		out = append(out, 0)
	}
	switch enc {
	case colEncFlat:
		for _, img := range images {
			if img == nil {
				continue
			}
			if isTextKind(kind) {
				out = binary.AppendUvarint(out, uint64(len(img)))
			}
			out = append(out, img...)
		}
	case colEncDict:
		out = appendColDict(out, dict)
		for _, c := range codes {
			out = binary.AppendUvarint(out, uint64(c))
		}
	case colEncRLE:
		out = appendColDict(out, dict)
		out = binary.AppendUvarint(out, uint64(nRuns))
		for r := 0; r < nRows; {
			e := r + 1
			for e < nRows && codes[e] == codes[r] {
				e++
			}
			out = binary.AppendUvarint(out, uint64(codes[r]))
			out = binary.AppendUvarint(out, uint64(e-r))
			r = e
		}
	}
	return out
}

func appendColDict(out []byte, dict [][]byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(dict)))
	for _, e := range dict {
		out = binary.AppendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	return out
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// columnarReader walks a columnar page payload column by column; decode
// callbacks receive raw images so row- and vector-materializing readers
// share the traversal.
type columnarReader struct {
	rd    pageReader
	nCols int
	nRows int
	kind  sqltypes.Kind // kind of the column being decoded
}

func newColumnarReader(buf []byte, nCols int) (*columnarReader, error) {
	cr := &columnarReader{rd: pageReader{buf: buf}}
	cr.nCols = int(cr.rd.uvarint())
	cr.nRows = int(cr.rd.uvarint())
	if cr.rd.failed || cr.nCols != nCols {
		return nil, fmt.Errorf("storage: columnar page has %d columns, schema has %d", cr.nCols, nCols)
	}
	return cr, nil
}

// column decodes the next column. nulls is nil when the column has no
// nulls; codes/dict are nil for flat columns, in which case flat holds
// one image per non-null row in row order.
func (cr *columnarReader) column() (enc byte, nulls []byte, dict [][]byte, codes []int32, flat [][]byte, err error) {
	return cr.walkColumn(true)
}

// skipColumn walks past the next column, validating its structure but
// building none of its arrays — what a projected scan does for a column
// it does not emit.
func (cr *columnarReader) skipColumn() error {
	_, _, _, _, _, err := cr.walkColumn(false)
	return err
}

// walkColumn is the single traversal behind column and skipColumn; with
// keep unset it returns nothing but the encoding and an error.
func (cr *columnarReader) walkColumn(keep bool) (enc byte, nulls []byte, dict [][]byte, codes []int32, flat [][]byte, err error) {
	rd := &cr.rd
	encB := rd.bytes(1)
	hasN := rd.bytes(1)
	if rd.failed {
		return 0, nil, nil, nil, nil, rd.err()
	}
	enc = encB[0]
	if hasN[0] != 0 {
		nulls = rd.bytes((cr.nRows + 7) / 8)
		if rd.failed {
			return 0, nil, nil, nil, nil, rd.err()
		}
	}
	isNull := func(r int) bool {
		return nulls != nil && nulls[r/8]&(1<<uint(r%8)) != 0
	}
	switch enc {
	case colEncFlat:
		if keep {
			flat = make([][]byte, cr.nRows)
		}
		for r := 0; r < cr.nRows; r++ {
			if isNull(r) {
				continue
			}
			img := cr.readImage()
			if rd.failed {
				return 0, nil, nil, nil, nil, rd.err()
			}
			if keep {
				flat[r] = img
			}
		}
	case colEncDict, colEncRLE:
		nDict := int(rd.uvarint())
		if rd.failed || nDict < 0 || nDict > cr.nRows {
			return 0, nil, nil, nil, nil, fmt.Errorf("storage: bad columnar dictionary size")
		}
		if keep {
			dict = make([][]byte, nDict)
			codes = make([]int32, cr.nRows)
		}
		for i := 0; i < nDict; i++ {
			e := rd.bytes(int(rd.uvarint()))
			if keep {
				dict[i] = e
			}
		}
		if enc == colEncDict {
			for r := 0; r < cr.nRows; r++ {
				code := int32(rd.uvarint())
				if keep {
					codes[r] = code
				}
			}
		} else {
			nRuns := int(rd.uvarint())
			at := 0
			for i := 0; i < nRuns; i++ {
				code := int32(rd.uvarint())
				n := int(rd.uvarint())
				if rd.failed || n < 0 || at+n > cr.nRows {
					return 0, nil, nil, nil, nil, fmt.Errorf("storage: columnar runs exceed row count")
				}
				if keep {
					for j := 0; j < n; j++ {
						codes[at+j] = code
					}
				}
				at += n
			}
			if at != cr.nRows {
				return 0, nil, nil, nil, nil, fmt.Errorf("storage: columnar runs cover %d of %d rows", at, cr.nRows)
			}
		}
		for r := range codes {
			if !isNull(r) && int(codes[r]) >= nDict {
				return 0, nil, nil, nil, nil, fmt.Errorf("storage: columnar code out of range")
			}
		}
	default:
		return 0, nil, nil, nil, nil, fmt.Errorf("storage: unknown column encoding %d", enc)
	}
	if rd.failed {
		return 0, nil, nil, nil, nil, rd.err()
	}
	return enc, nulls, dict, codes, flat, nil
}

// readImage consumes one flat cell image of the current column's kind
// (cr.kind, set by the caller before each column pass).
func (cr *columnarReader) readImage() []byte {
	rd := &cr.rd
	switch cr.kind {
	case sqltypes.KindInt:
		return rd.varintBytes()
	case sqltypes.KindFloat:
		return rd.bytes(8)
	case sqltypes.KindBool:
		return rd.bytes(1)
	default:
		return rd.bytes(int(rd.uvarint()))
	}
}

// DecodeColumnarRows decodes a columnar page payload back into rows,
// appending to dst — the row-path and recovery decoder.
func DecodeColumnarRows(kinds []sqltypes.Kind, buf []byte, dst []sqltypes.Row) ([]sqltypes.Row, error) {
	cr, err := newColumnarReader(buf, len(kinds))
	if err != nil {
		return nil, err
	}
	rows := make([]sqltypes.Row, cr.nRows)
	for r := range rows {
		rows[r] = make(sqltypes.Row, cr.nCols)
	}
	for c := 0; c < cr.nCols; c++ {
		cr.kind = kinds[c]
		_, nulls, dict, codes, flat, err := cr.column()
		if err != nil {
			return nil, err
		}
		// Decode dictionary entries once per column.
		vals := make([]sqltypes.Value, len(dict))
		for i, img := range dict {
			v, err := cellFromImage(kinds[c], img)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		for r := 0; r < cr.nRows; r++ {
			if nulls != nil && nulls[r/8]&(1<<uint(r%8)) != 0 {
				rows[r][c] = sqltypes.Null
				continue
			}
			if codes != nil {
				rows[r][c] = vals[codes[r]]
				continue
			}
			v, err := cellFromImage(kinds[c], flat[r])
			if err != nil {
				return nil, err
			}
			rows[r][c] = v
		}
	}
	return append(dst, rows...), nil
}
