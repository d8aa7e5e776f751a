package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Atomicwrite keeps persistence torn-file-free — the session journal, whose
// base carries the session payload and any negotiation checkpoint: in the
// packages that persist it (the driver scopes this to the package
// root, internal/serve, internal/snapshot and internal/journal), files must
// be produced through the one helper, snapshot.WriteFileAtomic (temp file
// in the target dir + Sync + Close + Rename), never by writing the
// destination path directly. A direct os.WriteFile/os.Create — or
// os.OpenFile opened for writing or creation — is exactly the call that
// leaves `*.tmp` debris and half-written journals behind.
//
// os.CreateTemp is allowed (it is how snapshot.WriteFileAtomic itself
// starts), as is os.OpenFile in read-only mode. A deliberate non-atomic write carries
// //grlint:rawwrite <reason>.
//
// The analyzer also enforces fsync-before-ack on the durability path: a
// function that writes an *os.File directly must Sync a file before it
// returns — data sitting in the page cache when the caller is told
// "durable" is exactly the write-ahead-journal bug class (an acknowledged
// ECO lost to kill -9). A write whose durability is genuinely someone
// else's job carries //grlint:nosync <reason>.
var Atomicwrite = &Analyzer{
	Name: "atomicwrite",
	Doc: "flags direct os.WriteFile/os.Create/os.OpenFile(write) in " +
		"persistence packages; route them through snapshot.WriteFileAtomic or " +
		"annotate //grlint:rawwrite <reason>. Also flags functions that write " +
		"an *os.File without any File.Sync before returning (fsync-before-ack); " +
		"annotate //grlint:nosync <reason> when durability is the caller's job",
	Run: runAtomicwrite,
}

func runAtomicwrite(pass *Pass) (any, error) {
	checkFsyncBeforeAck(pass)
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := osFuncName(pass, call)
		if !ok {
			return true
		}
		switch name {
		case "WriteFile", "Create":
		case "OpenFile":
			if !openFileWrites(pass, call) {
				return true
			}
		default:
			return true
		}
		if _, ok := pass.Directive(call, "rawwrite"); ok {
			return true
		}
		pass.Reportf(call.Pos(), "direct os.%s in a persistence package: use snapshot.WriteFileAtomic (temp+fsync+rename) or annotate //grlint:rawwrite <reason>", name)
		return true
	})
	return nil, nil
}

// checkFsyncBeforeAck flags functions that write an *os.File directly but
// never Sync any file before returning. The granularity is the function:
// a persistence routine acknowledges durability by returning, so the fsync
// must happen somewhere on the same path. The check is syntactic about
// ordering (any Sync in the body counts) — its job is to catch the
// routine with no fsync at all, the failure mode that loses acknowledged
// data to a crash, not to prove happens-before.
func checkFsyncBeforeAck(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var writes []*ast.CallExpr
			synced := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch name, ok := osFileMethod(pass, call); {
				case !ok:
				case name == "Write" || name == "WriteString" || name == "WriteAt":
					writes = append(writes, call)
				case name == "Sync":
					synced = true
				}
				return true
			})
			if synced {
				continue
			}
			for _, call := range writes {
				if _, ok := pass.Directive(call, "nosync"); ok {
					continue
				}
				pass.Reportf(call.Pos(), "os.File write with no File.Sync before return in a persistence package: fsync before acknowledging durability or annotate //grlint:nosync <reason>")
			}
		}
	}
}

// osFileMethod resolves call to a method of os.File, returning its name.
func osFileMethod(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "os" || obj.Name() != "File" {
		return "", false
	}
	return fn.Name(), true
}

// osFuncName resolves call to a function of package os, returning its name.
func osFuncName(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return "", false
	}
	return fn.Name(), true
}

// openFileWrites reports whether an os.OpenFile call's flag argument
// (constant-folded when possible) includes a create/write mode. A flag the
// type checker cannot evaluate to a constant is treated as writing.
func openFileWrites(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return true
	}
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return true
	}
	flags, ok := constant.Int64Val(tv.Value)
	if !ok {
		return true
	}
	// os.O_WRONLY=1, O_RDWR=2, O_CREATE=0x40, O_TRUNC=0x200, O_APPEND=0x400
	// on linux; O_RDONLY is 0, so any of these bits means the file can be
	// created or mutated.
	const writeBits = 0x1 | 0x2 | 0x40 | 0x200 | 0x400
	return flags&writeBits != 0
}
