"""Command-line frontend: count, enumerate, prufer, sample, verify.

Exit codes are a stable contract: 0 success (or all identities PASS),
1 verification failure, 2 usage or validation error, 3 enumeration or
work cap exceeded.  All output is UTF-8, line-feed terminated, and
deterministic given the flags (sample streams included, via the seed).
The grammar of every command is declared once, in `COMMANDS`, in the
keywords argparse's add_argument takes.  Argv in its plain form (exact
option strings, values apart or as "--opt=value") is read against that
table with no argparse parser built; anything else goes to the full
argparse parser, which passes the same keywords to add_argument and
prints argparse's usage, help and error text.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain, count, groupby, islice, product, repeat
from typing import IO, Iterable, Iterator

from treecount import counting, enumeration, sampling, verifier
from treecount.core import (
    CapExceeded,
    EdgeTextError,
    OutOfRange,
    TreeCountError,
    _check_cap,
    _edge_blocks,
    canonicalize_tree,
    int_to_text,
    read_prufer_lines,
    validate_degrees,
)

TREE_FORMATS = ("edges", "prufer", "json", "csv")

# Largest n that count computes, or length of its degree vector: at the
# cap the slowest subject, degrees of a path, counts and prints in about
# a second of CPU.
COUNT_N_CAP = 40_000


def _parse_degrees(text: str, n: int | None = None) -> tuple[int, ...]:
    # with n given, a vector of another length is refused before it is
    # validated, whose diagnostic would name its length as n
    try:
        degrees = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise OutOfRange(f"degrees must be comma-separated integers, got {text!r}") from None
    if n is not None and len(degrees) != n:
        raise OutOfRange(f"--degrees lists {len(degrees)} vertices but -n is {n}")
    validate_degrees(degrees)
    return degrees


# Edge-mask texts, 2 <= n <= 9.  Bit i of a tree's edge mask is the edge
# enumeration._mask_pairs(n)[i], and enumeration._mask_tables(n, piece)
# gives the text of the edges set in each chunk of the mask, so a tree's
# text is one lookup per chunk, joined.  Every tree has an edge at vertex
# 1, so its first edge lies in chunk 0, which holds vertex 1's edges: each
# chunk-0 entry carries the record's head and drops the ", " a json piece
# starts with, and each last-chunk entry carries the tail.  A csv piece
# starts with the placeholder "#", which each row replaces with its index.
_MASK_FORMATS = {  # piece, head, characters cut from chunk 0's entries, tail
    "edges": ("%d %d\n", "n %d\n", 0, ""),
    "json": (", [%d, %d]", '{"n": %d, "edges": [', 2, "]}\n"),
    "csv": ("#,%d,%d\n", "", 0, ""),
}


@lru_cache(maxsize=None)
def _text_tables(n: int, fmt: str) -> tuple[tuple[int, int, list[str]], ...]:
    """The chunks of enumeration._mask_tables(n, piece) for the edges, json
    or csv format on 2 <= n <= 9 vertices, with the head and the tail
    edited in; made once per (n, format), on first use.  The raw tables
    are built past _mask_tables' memo, so only this edited copy is kept."""
    piece, head, cut, tail = _MASK_FORMATS[fmt]
    chunks = list(enumeration._mask_tables.__wrapped__(n, piece))
    head = head % n if head else ""
    lo, width, table = chunks[0]
    chunks[0] = lo, width, [head + t[cut:] for t in table]
    lo, width, table = chunks[-1]
    chunks[-1] = lo, width, [t + tail for t in table]
    return tuple(chunks)


def _mask_texts(n: int, fmt: str, masks: Iterable[int], start: int = 0) -> Iterator[str]:
    """The text of the tree of each edge mask on 2 <= n <= 9 vertices in the
    edges, json or csv format, one lookup per chunk of the format's
    _text_tables; a csv row starts with the tree's index in the stream,
    the first start."""
    text = enumeration._mask_sum(_text_tables(n, fmt))
    if fmt == "csv":
        return map(str.replace, map(text, masks), repeat("#"), map(str, count(start)))
    return map(text, masks)


def _tree_texts(n: int, fmt: str, words: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """The text of the tree of each Prufer word on n vertices in the edges,
    json or csv format; a csv row starts with the tree's index in the
    stream.  Each word is decoded once, with no per-edge formatting: up to
    n = 9 to its edge mask, written by _mask_texts, above it to the
    flattened edges that fill one %-template made for the run."""
    if n == 1:
        text = {"edges": "n 1\n", "json": '{"n": 1, "edges": []}\n', "csv": ""}[fmt]
        return (text for _ in words)
    if n < 10:
        return _mask_texts(n, fmt, map(enumeration._decode_mask, repeat(n), words))

    def flat(w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(enumeration._decode_edges(n, w)))

    if fmt == "edges":
        template = "n %d\n" % n + "%d %d\n" * (n - 1)
    elif fmt == "json":
        template = '{"n": %d, "edges": [' % n + ", ".join(["[%d, %d]"] * (n - 1)) + "]}\n"
    else:
        return ((("%d," % i + "%d,%d\n") * (n - 1)) % flat(w) for i, w in enumerate(words))
    return (template % flat(w) for w in words)


def _word_texts(n: int, fmt: str, words: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """The text of each Prufer word on n >= 2 vertices from one %-template
    made for the run: its symbols joined by commas (fmt "text") or the record
    {"n": n, "symbols": [...]} (fmt "json"); %s writes an int symbol as str()
    does, faster than %d."""
    if n < 2:
        # a one-vertex tree has no sequence: refused as prufer encode does
        raise OutOfRange("encoding needs at least 2 vertices")
    if fmt == "text":
        template = ",".join(["%s"] * (n - 2)) + "\n"
    else:
        template = '{"n": %d, "symbols": [' % n + ", ".join(["%s"] * (n - 2)) + "]}\n"
    return map(template.__mod__, words)


def _texts(n: int, fmt: str, words: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """The lines of a stream of Prufer words on n vertices in a tree format:
    the prufer format writes each word as it is, the others its tree."""
    if fmt == "prufer":
        return _word_texts(n, "text", words)
    return _tree_texts(n, fmt, words)


# The most trees or words one write holds: the lines of a chunk are joined
# and written at once, as a real stdout pays for each write it is given.
_CHUNK = 4096


def _chunks(lines: Iterable[str], stop: int = sys.maxsize) -> Iterator[tuple[int, str]]:
    """(number, text) of each chunk of at most _CHUNK of the first stop lines,
    at most sys.maxsize."""
    lines = islice(lines, stop)
    for chunk in iter(lambda: list(islice(lines, _CHUNK)), []):
        yield len(chunk), "".join(chunk)


def _sweep_chunks(n: int, fmt: str, stop: int) -> Iterator[tuple[int, str]]:
    """(number, text) of each chunk of at most _CHUNK of the first stop lines
    of plain enumerate on 4 <= n <= 9 vertices.  The tree formats are
    written from the edge masks of enumeration._sweep_chunks.  The prufer
    format is written from shared texts: the lines of the words' last n - 4
    symbols (the last one at n = 4) are formatted once, and a run of them
    with a prefix's text after each line feed is the lines of that prefix's
    words."""
    if fmt != "prufer":
        start = 0
        for masks in enumeration._sweep_chunks(n, stop, _CHUNK):
            yield len(masks), "".join(_mask_texts(n, fmt, masks, start))
            start += len(masks)
        return
    symbols = range(1, n + 1)
    lead = min(2, n - 3)  # the symbols of a prefix
    rest, size = n - 2 - lead, n ** (n - 2 - lead)  # the symbols and words after it
    tails = _word_texts(rest + 2, "text", product(symbols, repeat=rest))
    tails = "".join(text for _, text in _chunks(tails, stop))  # with no list of every line
    heads = _word_texts(lead + 2, "text", product(symbols, repeat=lead))
    # left counts the lines still to write, so zip formats no prefix past them
    for left, head in zip(range(stop, 0, -size), heads):
        head = head[:-1] + ","  # its line feed becomes the comma before a tail
        for lo in range(0, min(left, size), _CHUNK):
            hi = min(lo + _CHUNK, left, size)
            # a line of the rest is 2 * rest characters: one digit per symbol
            yield hi - lo, head + tails[2 * rest * lo : 2 * rest * hi - 1].replace("\n", "\n" + head) + "\n"


def _write(stdout: IO[str], fmt: str, chunks: Iterable[tuple[int, str]], want_count: bool = False) -> None:
    """Write a stream of (number, text) chunks of tree or word lines in a
    tree format, one write per chunk: the csv header, the chunks, and the
    count line if wanted."""
    if fmt == "csv":
        stdout.write("tree,u,v\n")
    total = 0
    for number, text in chunks:
        total += number
        stdout.write(text)
    if want_count:
        if fmt == "json":
            stdout.write('{"count": %d}\n' % total)
        elif fmt == "csv":
            stdout.write(f"count,{total}\n")
        else:
            stdout.write(f"count {total}\n")


# ---------------------------------------------------------------------------
# count


def cmd_count(args, stdin: IO[str], stdout: IO[str]) -> int:
    if args.subject == "total":
        if args.n is None:
            raise OutOfRange("count total requires -n")
        _check_cap("n", args.n, "count", COUNT_N_CAP)
        payload = {"subject": "total", "n": args.n}
        value = counting.count_total_trees(args.n)
    elif args.subject == "degrees":
        if args.degrees is None:
            raise OutOfRange("count degrees requires -d/--degrees")
        d = _parse_degrees(args.degrees)
        _check_cap("n", len(d), "count", COUNT_N_CAP)
        payload = {"subject": "degrees", "degrees": list(d)}
        value = counting.count_trees_with_degrees(d)
    else:
        if args.n is None or args.k is None:
            raise OutOfRange("count degv1 requires -n and -k")
        _check_cap("n", args.n, "count", COUNT_N_CAP)
        payload = {"subject": "degv1", "n": args.n, "k": args.k}
        value = counting.count_trees_deg_v1(args.n, args.k)

    digits = int_to_text(value)
    if args.format == "json":
        payload["count"] = digits
        lines = [json.dumps(payload) + "\n"]
    elif args.format == "csv":
        lines = ["count\n", f"{digits}\n"]
    else:
        lines = [f"{digits}\n"]
    stdout.writelines(lines)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args, stdin: IO[str], stdout: IO[str]) -> int:
    n = args.n
    if args.limit is not None and args.limit < 0:
        raise OutOfRange(f"--limit must be >= 0, got {args.limit}")
    # islice stops at most at sys.maxsize, more trees than any sweep has
    stop = sys.maxsize if args.limit is None else min(args.limit, sys.maxsize)
    if args.degrees is not None:
        words = enumeration.enumerate_sequences_with_degrees(_parse_degrees(args.degrees, n))
    elif args.deg_v1 is not None:
        k = args.deg_v1
        if n < 2:
            raise OutOfRange(f"--deg-v1 needs n >= 2, got n={n}")
        if not 1 <= k <= n - 1:
            raise OutOfRange(f"--deg-v1 must lie in 1..{n - 1}, got {k}")
        # deg(1) = (occurrences of 1 in the word) + 1
        words = (w for w in enumeration.enumerate_sequences(n) if w.count(1) == k - 1)
    else:
        words = enumeration.enumerate_sequences(n)  # checks n and the sweep cap
        if 4 <= n <= 9:
            # the suffix-shared sweep stands in for the words
            _write(stdout, args.format, _sweep_chunks(n, args.format, stop), args.count)
            return 0
    _write(stdout, args.format, _chunks(_texts(n, args.format, words), stop), args.count)
    return 0


# ---------------------------------------------------------------------------
# prufer


def cmd_prufer(args, stdin: IO[str], stdout: IO[str]) -> int:
    # every record is parsed and converted before any is written, so a bad
    # record ends in its diagnostic alone, not after partial output
    if args.direction == "encode":
        lines = stdin.read().split("\n")
        if not lines[-1]:
            lines.pop()  # the empty piece after a final line feed is no line
        words = []
        for header, n, us, vs in _edge_blocks(lines):
            if n < 2:
                raise OutOfRange("encoding needs at least 2 vertices")
            word = None
            if min(us) >= 1 and min(vs) >= 1 and max(us) <= n and max(vs) <= n:
                # the leaf peel refuses exactly the edges that form no tree
                word = enumeration._encode_walk(n, zip(us, vs))
            if word is None:
                try:
                    canonicalize_tree(n, zip(us, vs))  # raises the block's diagnostic
                except TreeCountError as err:
                    raise EdgeTextError(header, str(err)) from err
            words.append(word)
        write, fmt = _word_texts, args.format
    else:
        words = read_prufer_lines(stdin)
        write, fmt = _tree_texts, "json" if args.format == "json" else "edges"
    # a word on n vertices has n - 2 symbols
    out = [text for length, run in groupby(words, len) for text in write(length + 2, fmt, run)]
    _write(stdout, fmt, _chunks(out))
    return 0


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, stdin: IO[str], stdout: IO[str]) -> int:
    if args.degrees is not None:
        d = _parse_degrees(args.degrees)
        n = len(d)
        words = sampling.sample_sequence_with_degrees(d, seed=args.seed, count=args.count)
    else:
        n = args.n
        words = sampling.sample_uniform_sequence(n, seed=args.seed, count=args.count)
    _write(stdout, args.format, _chunks(_texts(n, args.format, words)))
    return 0


# ---------------------------------------------------------------------------
# verify


VERIFY_SUBJECTS = {
    "theorem1": "THEOREM_1",
    "degv1": "DEG_V1_TOTALITY",
    "lemma1": "LEMMA_1",
    "recursion": "EQ_20_RECURSION",
    "doublecount": "DOUBLE_COUNT_PAIRS",
    "l3": "L3_EXPANSION",
    "supervertex": "SUPERVERTEX_MARGINAL",
    "collapse": "BINOMIAL_COLLAPSE",
    "roundtrip": "PRUFER_ROUNDTRIP",
}


def _table_lines(reports) -> Iterator[str]:
    yield (
        f"{'identity_id':<22}{'status':<8}{'checked':>9}{'failures':>10}{'elapsed_ms':>12}\n"
    )
    for r in reports:
        yield (
            f"{r.identity_id:<22}{r.status:<8}{r.checked:>9}{len(r.failures):>10}{r.elapsed_ms:>12}\n"
        )
    rows = [(r.identity_id, f) for r in reports for f in r.failures]
    if rows:
        yield "counterexamples:\n"
        for rid, f in rows:
            rec = f.to_record()
            yield f"  {rid} {f.parameters}: expected {rec['expected']}, got {rec['got']}\n"


def _verify_exit(reports) -> int:
    if any(r.failures and not r.capped for r in reports):
        return 1
    return 3 if any(r.capped for r in reports) else 0


def cmd_verify(args, stdin: IO[str], stdout: IO[str]) -> int:
    max_n = args.max_n
    if max_n is not None and max_n < 2:
        raise OutOfRange(f"--max-n must be >= 2, got {max_n}")
    if args.subject == "all":
        limits = None if max_n is None else {i: max_n for i in verifier.IDENTITY_IDS}
        reports = verifier.verify_all(limits)
    else:
        identity_id = VERIFY_SUBJECTS[args.subject]
        limit = max_n if max_n is not None else verifier.DEFAULT_LIMITS[identity_id]
        reports = [verifier._REGISTRY[identity_id](limit)]
    as_json = args.json or args.format == "json"
    if as_json:
        status = "PASS" if all(r.status == "PASS" for r in reports) else "FAIL"
        doc = {"status": status, "reports": [r.to_record() for r in reports]}
        lines: Iterable[str] = [json.dumps(doc, indent=2) + "\n"]
    else:
        lines = _table_lines(reports)
    stdout.writelines(lines)
    return _verify_exit(reports)


# ---------------------------------------------------------------------------
# parser and dispatch


# The grammar of every command, declared once in add_argument's own words:
# (help line, handler, arguments, exclusive groups).  An argument is its
# flag strings, or the positional's name, then the keywords add_argument
# takes; an exclusive group is (required, dests of its options).
# build_parser() passes the keywords to add_argument as they are, and
# _read_argv() reads argv against the same keywords.
COMMANDS = {
    "count": (
        "print an exact tree count",
        cmd_count,
        (
            ("subject", {"choices": ("total", "degrees", "degv1")}),
            ("-n", {"dest": "n", "type": int, "help": "vertex count"}),
            ("-d", "--degrees", {"dest": "degrees", "help": "comma-separated degrees, vertex i at position i"}),
            ("-k", {"dest": "k", "type": int, "help": "degree of vertex 1 (degv1 subject)"}),
            ("--format", {"dest": "format", "choices": ("text", "json", "csv"), "default": "text"}),
        ),
        (),
    ),
    "enumerate": (
        "stream all trees on n vertices",
        cmd_enumerate,
        (
            ("-n", {"dest": "n", "type": int, "required": True}),
            ("--degrees", {"dest": "degrees", "help": "restrict to this degree sequence"}),
            ("--deg-v1", {"dest": "deg_v1", "type": int, "help": "restrict to trees with this degree at vertex 1"}),
            ("--format", {"dest": "format", "choices": TREE_FORMATS, "default": "edges"}),
            ("--limit", {"dest": "limit", "type": int, "help": "stop after this many trees"}),
            ("--count", {"dest": "count", "action": "store_true", "help": "append a final count line"}),
        ),
        ((False, ("degrees", "deg_v1")),),
    ),
    "prufer": (
        "convert between edge lists and Prufer sequences",
        cmd_prufer,
        (
            ("direction", {"choices": ("encode", "decode")}),
            ("--format", {"dest": "format", "choices": ("text", "json"), "default": "text"}),
        ),
        (),
    ),
    "sample": (
        "draw seeded uniform random trees",
        cmd_sample,
        (
            ("-n", {"dest": "n", "type": int}),
            ("--degrees", {"dest": "degrees", "help": "sample with this exact degree sequence"}),
            ("--count", {"dest": "count", "type": int, "default": 1}),
            ("--seed", {"dest": "seed", "type": int, "default": 0}),
            ("--format", {"dest": "format", "choices": TREE_FORMATS, "default": "edges"}),
        ),
        ((True, ("n", "degrees")),),
    ),
    "verify": (
        "check counting identities against oracles",
        cmd_verify,
        (
            ("subject", {"choices": ("all", *VERIFY_SUBJECTS)}),
            ("--max-n", {"dest": "max_n", "type": int, "help": "top of the parameter grid for every selected identity"}),
            ("--json", {"dest": "json", "action": "store_true", "help": "emit one JSON document"}),
            ("--format", {"dest": "format", "choices": ("table", "json"), "default": "table"}),
        ),
        (),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, which prints argparse's usage, help and error text."""
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Exact counting, enumeration, verification, and sampling of labeled trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments, groups) in COMMANDS.items():
        cmd_parser = sub.add_parser(name, help=help_line)
        owners = {}  # dest -> the exclusive group that holds its option
        for required, dests in groups:
            group = cmd_parser.add_mutually_exclusive_group(required=required)
            owners.update(dict.fromkeys(dests, group))
        for *strings, keywords in arguments:
            owners.get(keywords.get("dest"), cmd_parser).add_argument(*strings, **keywords)
        cmd_parser.set_defaults(handler=handler)
    return parser


def _read_argv(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser makes of `name` and its tokens, when
    they keep to a form whose reading is plain: exact option strings, each
    at most once, each value its own token not starting with "-" or joined
    to an exact long option as "--opt=value", ints that int() takes,
    values among the choices, one positional where the command takes one,
    and required options and groups satisfied.  None for anything else.
    Defaults are argparse's: `default` if given, else False for a
    store_true flag, else None."""
    _, handler, arguments, groups = COMMANDS[name]
    flags: dict = {}
    defaults: dict = {}
    positional, choices = None, ()
    for argument in arguments:
        keywords = argument[-1]
        if argument[0][0] != "-":
            positional, choices = argument[0], keywords["choices"]
            continue
        for flag in argument[:-1]:
            flags[flag] = keywords
        store_true = keywords.get("action") == "store_true"
        defaults[keywords["dest"]] = keywords.get("default", False if store_true else None)
    values: dict = {}
    rest = iter(tokens)
    for token in rest:
        if not token.startswith("-"):
            if token not in choices or positional in values:
                return None
            values[positional] = token
            continue
        keywords = flags.get(token)
        if keywords is None:
            # "--opt=value": argparse takes any value after the "=", even
            # an empty one or one starting with "-"
            option, _, value = token.partition("=")
            keywords = flags.get(option) if option.startswith("--") else None
            if keywords is None or keywords.get("action") == "store_true":
                return None
        elif keywords.get("action") == "store_true":
            value = True
        else:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
        dest = keywords["dest"]
        if dest in values:
            return None
        if keywords.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if positional is not None and positional not in values:
        return None
    if any(kw.get("required") and kw["dest"] not in values for kw in flags.values()):
        return None
    for required, dests in groups:
        given = sum(dest in values for dest in dests)
        if given > 1 or (required and not given):
            return None
    return argparse.Namespace(command=name, handler=handler, **{**defaults, **values})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Read argv against the command table with no argparse parser: building
    one costs more than a small count.  Argv outside the plain form
    `_read_argv` takes (help, "--", "-n5", "-n=5", "--flag=x",
    abbreviations, repeated options, values apart from their option that
    start with "-", bad ints and choices, missing or extra arguments, no
    command) goes unchanged to the full parser, which prints argparse's
    own usage, help and error text."""
    args = None
    if argv and argv[0] in COMMANDS:
        args = _read_argv(argv[0], argv[1:])
    return build_parser().parse_args(argv) if args is None else args


def main(
    argv: list[str] | None = None,
    *,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args, stdin, stdout)
    except CapExceeded as err:
        print(f"treecount: {err}", file=stderr)
        return 3
    except TreeCountError as err:
        print(f"treecount: {err}", file=stderr)
        return 2
    except BrokenPipeError:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
