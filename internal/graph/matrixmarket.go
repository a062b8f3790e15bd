package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The Figure 11 suite ships as synthetic stand-ins because the original
// University of Florida matrices cannot be bundled offline; this reader
// lets anyone who has the originals (Matrix Market .mtx files) run the
// same kernels and benchmarks on them. The subset of the format that the
// UF collection uses is supported: coordinate-form real/integer/pattern
// matrices, general or symmetric.

// ReadMatrixMarket parses a coordinate-form Matrix Market stream into a
// CSR matrix. Symmetric files are expanded; pattern files get unit
// values.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty Matrix Market stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("graph: not a Matrix Market header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: only coordinate format is supported, got %q", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("graph: unsupported field type %q", field)
	}
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("graph: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols int
	var nnz int64
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: malformed size line %q", line)
		}
		var err error
		if rows, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("graph: bad row count: %v", err)
		}
		if cols, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("graph: bad column count: %v", err)
		}
		if nnz, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("graph: bad nnz count: %v", err)
		}
		break
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("graph: invalid dimensions %d x %d, %d nnz", rows, cols, nnz)
	}

	coo := &COO{Rows: rows, Cols: cols}
	read := int64(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("graph: malformed entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad row index: %v", err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad column index: %v", err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("graph: entry (%d,%d) outside %d x %d", i, j, rows, cols)
		}
		v := 1.0
		if field != "pattern" {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("graph: bad value: %v", err)
			}
		}
		coo.Append(int32(i-1), int32(j-1), v)
		if symmetry == "symmetric" && i != j {
			coo.Append(int32(j-1), int32(i-1), v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read error: %v", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("graph: header promises %d entries, found %d", nnz, read)
	}
	return FromCOO(coo), nil
}
