#!/usr/bin/env python3
"""Inspect a RAPIDNN .rnnb model blob: dump the header and section
table, and optionally validate the file-level invariants.

Usage:
    tools/inspect_blob.py model.rnnb
    tools/inspect_blob.py --validate model.rnnb

The format (see src/blob/format.hh and DESIGN.md "Model blob format"):
a 64-byte little-endian header, a table of 24-byte section entries,
then aligned section payloads. --validate checks magic, version,
header/file sizes, section kinds, alignment, ordering, overlap, and
that no bytes trail the last section; exit status 0 means valid.
"""

import argparse
import struct
import sys

MAGIC = 0x424E4E52  # "RNNB" little-endian
MIN_VERSION = 1
VERSION = 5  # v2 u8 packed codes, v3 dense rows, v4 drops u16 columns,
# v5 stores tally rows for conv and recurrent layers
HEADER_BYTES = 64
SECTION_ENTRY_BYTES = 24
MAX_SECTIONS = 1 << 20

KIND_NAMES = {
    0: "meta",
    1: "f64",
    2: "f32",
    3: "u16",
    4: "u32",
    5: "u8",
}

KIND_ELEM_BYTES = {0: 8, 1: 8, 2: 4, 3: 2, 4: 4, 5: 1}


class BlobError(Exception):
    pass


def parse_header(data):
    if len(data) < HEADER_BYTES:
        raise BlobError(
            f"file of {len(data)} bytes is smaller than the "
            f"{HEADER_BYTES}-byte header")
    (magic, version, flags, header_bytes, file_bytes, section_count,
     table_offset, meta_index) = struct.unpack_from("<IIIIQQQQ", data, 0)
    return {
        "magic": magic,
        "version": version,
        "flags": flags,
        "headerBytes": header_bytes,
        "fileBytes": file_bytes,
        "sectionCount": section_count,
        "sectionTableOffset": table_offset,
        "metaSectionIndex": meta_index,
    }


def parse_sections(data, header):
    count = header["sectionCount"]
    if count > MAX_SECTIONS:
        raise BlobError(f"section count {count} exceeds {MAX_SECTIONS}")
    table_end = HEADER_BYTES + count * SECTION_ENTRY_BYTES
    if table_end > len(data):
        raise BlobError("section table overruns the file")
    sections = []
    for i in range(count):
        kind, align, offset, size = struct.unpack_from(
            "<IIQQ", data, HEADER_BYTES + i * SECTION_ENTRY_BYTES)
        sections.append(
            {"index": i, "kind": kind, "align": align,
             "offset": offset, "size": size})
    return sections


def validate(data, header, sections):
    """Return a list of problem strings (empty = valid)."""
    problems = []

    def bad(msg):
        problems.append(msg)

    if header["magic"] != MAGIC:
        bad(f"bad magic 0x{header['magic']:08x} "
            f"(want 0x{MAGIC:08x} 'RNNB')")
    if not MIN_VERSION <= header["version"] <= VERSION:
        bad(f"unsupported version {header['version']} "
            f"(want {MIN_VERSION}..{VERSION})")
    if header["flags"] != 0:
        bad(f"unknown flags 0x{header['flags']:x}")
    if header["headerBytes"] != HEADER_BYTES:
        bad(f"header size {header['headerBytes']} "
            f"(want {HEADER_BYTES})")
    if header["fileBytes"] != len(data):
        bad(f"header claims {header['fileBytes']} bytes but the file "
            f"has {len(data)}")
    if header["sectionTableOffset"] != HEADER_BYTES:
        bad(f"section table at {header['sectionTableOffset']} "
            f"(want {HEADER_BYTES})")
    if not sections:
        bad("no sections")
    if header["metaSectionIndex"] >= len(sections):
        bad(f"meta section index {header['metaSectionIndex']} out of "
            f"range")
    elif sections[header["metaSectionIndex"]]["kind"] != 0:
        bad("meta section index does not point at a meta section")

    table_end = HEADER_BYTES + len(sections) * SECTION_ENTRY_BYTES
    prev_end = table_end
    last_end = table_end
    for s in sections:
        name = f"section {s['index']}"
        if s["kind"] not in KIND_NAMES:
            bad(f"{name}: unknown kind {s['kind']}")
            continue
        elem = KIND_ELEM_BYTES[s["kind"]]
        if s["align"] < elem or s["align"] > 4096 or \
                (s["align"] & (s["align"] - 1)) != 0:
            bad(f"{name}: invalid alignment {s['align']}")
        if s["offset"] < table_end:
            bad(f"{name}: offset {s['offset']} overlaps the "
                f"header/table")
        if s["align"] and s["offset"] % s["align"] != 0:
            bad(f"{name}: offset {s['offset']} not aligned to "
                f"{s['align']}")
        if s["size"] % elem != 0:
            bad(f"{name}: size {s['size']} not a multiple of "
                f"{elem}-byte elements")
        if s["offset"] + s["size"] > len(data):
            bad(f"{name}: [{s['offset']}, +{s['size']}) overruns the "
                f"file")
            continue
        # The writer lays sections out in index order; enforce
        # ordering and non-overlap (gaps are alignment padding only).
        if s["offset"] < prev_end:
            bad(f"{name}: overlaps or precedes the previous section "
                f"(offset {s['offset']}, previous end {prev_end})")
        elif s["align"] and s["offset"] - prev_end >= s["align"]:
            bad(f"{name}: {s['offset'] - prev_end} padding bytes "
                f"before it exceed its alignment")
        prev_end = s["offset"] + s["size"]
        last_end = max(last_end, prev_end)

    if not problems and last_end != len(data):
        bad(f"{len(data) - last_end} trailing bytes after the last "
            f"section")
    return problems


def dump(path, header, sections):
    print(f"{path}: RAPIDNN model blob")
    print(f"  magic            0x{header['magic']:08x}"
          f"{'  (RNNB)' if header['magic'] == MAGIC else ''}")
    print(f"  version          {header['version']}")
    print(f"  flags            0x{header['flags']:x}")
    print(f"  file bytes       {header['fileBytes']}")
    print(f"  sections         {header['sectionCount']}")
    print(f"  meta section     {header['metaSectionIndex']}")
    print()
    print(f"  {'idx':>5} {'kind':<6} {'align':>6} {'offset':>12} "
          f"{'bytes':>12} {'elems':>10}")
    total = 0
    for s in sections:
        kind = KIND_NAMES.get(s["kind"], f"?{s['kind']}")
        elem = KIND_ELEM_BYTES.get(s["kind"], 0)
        elems = s["size"] // elem if elem else 0
        total += s["size"]
        print(f"  {s['index']:>5} {kind:<6} {s['align']:>6} "
              f"{s['offset']:>12} {s['size']:>12} {elems:>10}")
    payload_pct = 100.0 * total / header["fileBytes"] \
        if header["fileBytes"] else 0.0
    print(f"\n  payload {total} bytes "
          f"({payload_pct:.1f}% of file; rest is header/table/padding)")


def main():
    parser = argparse.ArgumentParser(
        description="Dump and validate RAPIDNN .rnnb model blobs")
    parser.add_argument("path", help=".rnnb file to inspect")
    parser.add_argument("--validate", action="store_true",
                        help="check file-level invariants; non-zero "
                             "exit on any violation")
    args = parser.parse_args()

    try:
        with open(args.path, "rb") as f:
            data = f.read()
        header = parse_header(data)
        sections = parse_sections(data, header)
    except (OSError, BlobError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    dump(args.path, header, sections)

    if args.validate:
        problems = validate(data, header, sections)
        if problems:
            print(f"\nINVALID: {len(problems)} problem(s)")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("\nVALID")
    return 0


if __name__ == "__main__":
    sys.exit(main())
