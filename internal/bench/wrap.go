package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

// WrapResult is one row of the Section 5.2 comparison: the wall time of a
// COUNT(*)-style scan over a FileStream with a given access method.
type WrapResult struct {
	Method  string
	Elapsed time.Duration
	Records int64
}

// WrapExperiment reproduces the Section 5.2 list: scanning a short-read
// FileStream with (1) a command-line program, (2) an interpreted "T-SQL"
// stored procedure, (3) a line-oriented StreamReader procedure, (4) a
// chunked procedure and (5) a chunked table-valued function.
func WrapExperiment(readsFASTQ []byte, workDir string) ([]WrapResult, error) {
	db, err := core.Open(filepath.Join(workDir, "wrapdb"), core.Options{DOP: 1})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	udf.RegisterAll(db)
	if _, err := db.Exec(`CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`); err != nil {
		return nil, err
	}
	srcPath := filepath.Join(workDir, "lane.fastq")
	if err := os.WriteFile(srcPath, readsFASTQ, 0o644); err != nil {
		return nil, err
	}
	guid, err := db.ImportFileStream("ShortReadFiles", srcPath, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(855), "lane": sqltypes.NewInt(1),
	})
	if err != nil {
		return nil, err
	}

	var out []WrapResult
	run := func(method string, fn func() (int64, error)) error {
		start := time.Now()
		n, err := fn()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", method, err)
		}
		out = append(out, WrapResult{Method: method, Elapsed: time.Since(start), Records: n})
		return nil
	}

	// 1. Command-line program: direct buffered scan of the file.
	if err := run("Command line program", func() (int64, error) {
		f, err := os.Open(srcPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		sc := fastq.NewChunkedScanner(fastq.SourceFromReaderAt(f), fastq.FASTQEntry, 0)
		for sc.MoveNext() {
		}
		return sc.Entries, sc.Err()
	}); err != nil {
		return nil, err
	}

	// 2. "T-SQL" stored procedure: a WHILE loop over the blob content
	// using interpreted CHARINDEX/SUBSTRING expression evaluation with
	// T-SQL copy semantics for every extracted line - the row-at-a-time
	// interpreter overhead the paper measures in minutes.
	if err := run("T-SQL stored procedure (interpreted)", func() (int64, error) {
		return tsqlProcCount(db, guid)
	}); err != nil {
		return nil, err
	}

	// 3. CLR-style procedure with a StreamReader: line-at-a-time reads
	// with per-line allocations.
	if err := run("CLR proc, StreamReader", func() (int64, error) {
		stream, err := db.OpenBlob(guid)
		if err != nil {
			return 0, err
		}
		defer stream.Close()
		stream.SetSequential(true)
		br := bufio.NewReaderSize(&blobReaderAt{stream: stream}, 64<<10)
		var lines int64
		for {
			_, err := br.ReadString('\n')
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			lines++
		}
		return lines / 4, nil
	}); err != nil {
		return nil, err
	}

	// 4. CLR-style procedure with chunking: the paper's paging algorithm,
	// parsing in place with no per-row conversion.
	if err := run("CLR proc, chunking", func() (int64, error) {
		stream, err := db.OpenBlob(guid)
		if err != nil {
			return 0, err
		}
		defer stream.Close()
		stream.SetSequential(true)
		sc := fastq.NewChunkedScanner(stream, fastq.FASTQEntry, 0)
		for sc.MoveNext() {
		}
		return sc.Entries, sc.Err()
	}); err != nil {
		return nil, err
	}

	// 5. Chunked TVF: the same paging parser behind the full iterator
	// contract - MoveNext + FillRow into SQL values, consumed by the
	// query processor (SELECT COUNT(*) FROM ListShortReads(...)).
	if err := run("CLR TVF, chunking", func() (int64, error) {
		res, err := db.Exec(`SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')`)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].I, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// blobReaderAt adapts the blob stream to io.Reader for bufio.
type blobReaderAt struct {
	stream *core.BlobStream
	off    int64
}

func (b *blobReaderAt) Read(p []byte) (int, error) {
	n, err := b.stream.GetBytes(b.off, p)
	b.off += int64(n)
	if n == 0 && err == nil {
		return 0, io.EOF
	}
	return n, err
}

// tsqlProcCount emulates an interpreted T-SQL procedure: the blob is held
// in a VARCHAR(MAX) variable and a WHILE loop extracts one line at a time
// with CHARINDEX and SUBSTRING, every operation going through the boxed
// expression interpreter. SUBSTRING copies its result, matching T-SQL
// value semantics.
func tsqlProcCount(db *core.Database, guid string) (int64, error) {
	stream, err := db.OpenBlob(guid)
	if err != nil {
		return 0, err
	}
	content := make([]byte, stream.Size())
	if _, err := stream.GetBytes(0, content); err != nil && err != io.EOF {
		stream.Close()
		return 0, err
	}
	stream.Close()

	reg := expr.NewRegistry()
	charindex, _ := reg.Lookup("charindex")
	substring, _ := reg.Lookup("substring")
	copyString := func(args []sqltypes.Value) (sqltypes.Value, error) {
		v, err := substring(args)
		if err != nil {
			return v, err
		}
		// T-SQL materializes a fresh string; Go slicing would alias.
		return sqltypes.NewString(string(append([]byte(nil), v.S...))), nil
	}

	// DECLARE @content VARCHAR(MAX), @off INT, @lines INT
	contentVal := sqltypes.NewString(string(content))
	row := sqltypes.Row{contentVal, sqltypes.NewInt(1)} // [@content, @off]
	colContent := &expr.Col{Idx: 0, Name: "@content"}
	colOff := &expr.Col{Idx: 1, Name: "@off"}
	newline := &expr.Lit{V: sqltypes.NewString("\n")}

	// @idx = CHARINDEX('\n', @content, @off)
	idxExpr := &expr.Call{Name: "CHARINDEX", Fn: charindex, Args: []expr.Expr{newline, colContent, colOff}}
	var lines int64
	for {
		idxV, err := idxExpr.Eval(row)
		if err != nil {
			return 0, err
		}
		if idxV.I == 0 {
			break
		}
		// @line = SUBSTRING(@content, @off, @idx - @off)
		lineExpr := &expr.Call{Name: "SUBSTRING", Fn: expr.ScalarFunc(copyString), Args: []expr.Expr{
			colContent, colOff,
			&expr.Arith{Op: expr.OpSub, L: &expr.Lit{V: idxV}, R: colOff},
		}}
		if _, err := lineExpr.Eval(row); err != nil {
			return 0, err
		}
		lines++
		// @off = @idx + 1
		row[1] = sqltypes.NewInt(idxV.I + 1)
	}
	return lines / 4, nil
}

// ChunkSizeAblation measures the chunked scan at several paging buffer
// sizes — a design-choice ablation run by cmd/experiments, outside the
// end-to-end benchmark of BENCHMARK.json and perfbench/catalog.json.
func ChunkSizeAblation(readsFASTQ []byte, workDir string, sizes []int) ([]WrapResult, error) {
	path := filepath.Join(workDir, "ablate.fastq")
	if err := os.WriteFile(path, readsFASTQ, 0o644); err != nil {
		return nil, err
	}
	var out []WrapResult
	for _, size := range sizes {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sc := fastq.NewChunkedScanner(fastq.SourceFromReaderAt(f), fastq.FASTQEntry, size)
		for sc.MoveNext() {
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, WrapResult{
			Method:  fmt.Sprintf("chunk=%dKiB", size/1024),
			Elapsed: time.Since(start),
			Records: sc.Entries,
		})
	}
	return out, nil
}
