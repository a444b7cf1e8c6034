# Help prints this text, and a usage error the command's line of it.  It is
# assigned, not a docstring, so that ``python -OO`` keeps it.
__doc__ = """Command-line front end.

    scrollex validate  FILE
    scrollex order     FILE
    scrollex groebner  FILE
    scrollex cycles    FILE [--kind minimal|virtual] [--cap N]
    scrollex betti     FILE [--ideal gamma|initial] [--field q|P] [--max-vertices N]
    scrollex p2        FILE [--mode lower|upper|exact|auto]
    scrollex poligon   N S
    scrollex gen-chordal   --seed S [--vertices N]
    scrollex gen-cycle-ext --seed S [--length N]

An option takes its value as "--opt v" or "--opt=v", under its full name
or a unique prefix, and the last repeat wins; "--" ends the options, and
-h/--help prints this text.  Reports are canonical JSON on stdout (sorted
keys, exact integers, infinite values as the string "infinity");
diagnostics go to stderr.  Exit codes: 0 success, 1 input or validation
error (a Betti table over more vertices than --max-vertices is one, and so
are one whose subset sweep does not fit in memory and a usage error such
as an unknown option, a missing argument or a value of the wrong type; the
usage line and the message, in argparse's words, go to stderr) or memory
running out (one stderr line, "error: out of memory"), 2 method
not applicable, 3 a "cycles" listing exceeded its cap, 4 internal error:
any other exception, reported on one stderr line as
"error: internal error: <Type>: <message>", never as a traceback.  A
report that cannot be written to stdout (a full disk, a closed pipe) also
exits 1, with one "error: <message>" line on stderr.
A cycle listing has no limit on cycle length; only its cap on the number of
cycles (--cap, default 10^6) stops it.  p2 lists no cycles and has no cap:
each of its walks keeps at most one cycle.

Every p2 mode reads one report.  "lower" is p2 of the initial complex, a
certified lower bound; "lower_substitution" is the replacement-length value
of the virtual minimal cycles, a lower bound only when the "block_sizes"
hypothesis holds; "upper" is the first-block expansion bound.  --mode lower
prints "lower", "lower_substitution" and the latter's witness cycle;
--mode upper prints "upper" and its witness cycle; auto and exact print the
whole report.  A mode exits 2 when its value is not applicable, and exact
also when p2 is only boxed in an interval.
"""

import importlib
import json
import os
import sys

from . import __version__
from .graphs import DEFAULT_CYCLE_CAP, CycleCapExceeded
from .instance import instance_digest, parse_instance, sha256


_quote = json.encoder.encode_basestring_ascii
_is_str = str.__instancecheck__  # isinstance(v, str), callable from map


def _text(x, pad):
    """The text ``json.dumps(x, sort_keys=True, indent=2)`` gives ``x``, when
    the line ``x`` starts on begins with ``pad``: a newline and that line's
    indent.  With an indent ``json`` runs its pure-Python encoder; this
    builds the same text from C joins.  It covers what reports hold: str,
    int, bool and None, lists and tuples, and dicts with str keys; anything
    else raises the TypeError ``json`` raises.

    >>> print(_text({"b": [1, (True, None)], "a": ("x", "y"), "c": []}, "\\n"))
    {
      "a": [
        "x",
        "y"
      ],
      "b": [
        1,
        [
          true,
          null
        ]
      ],
      "c": []
    }
    """
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        if all(map(_is_str, x)):
            items = map(_quote, x)
        else:
            items = [_text(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [f"{_quote(k)}: {_text(v, inner)}" for k, v in sorted(x.items())]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _write(text, end):
    """Write ``text`` and ``end`` to stdout, flushed.  They go to the binary
    buffer as one byte string, written until every byte is out: with
    unbuffered stdout the buffer is the raw file, whose short counts the
    text layer would ignore.  A stream without a buffer (``io.StringIO``, or
    None without fd 1) is printed to.  A failed write on a stream with a file
    descriptor points fd 1 at ``os.devnull`` before it raises (the idiom
    Python documents for EPIPE), so teardown cannot fail on the rest."""
    out = sys.stdout
    try:
        buffer = getattr(out, "buffer", None)
        if buffer is None:
            print(text, end=end, flush=True)
        else:
            text += end  # CPython resizes in place when the caller passed a temporary
            rest = memoryview(text.encode(out.encoding, out.errors))
            while rest:
                rest = rest[buffer.write(rest) :]
            buffer.flush()
    except OSError:
        try:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # no file descriptor, as under pytest's capture
        raise


def _emit(report):
    """Write ``report``, lifting the limit on the digits of int-to-str, a guard
    for parsing untrusted text: every input is parsed, and entries are exact."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write(_text(report, "\n"), "\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _envelope(command, digest, payload):
    doc = {"command": command, "version": __version__, "instance_digest": digest}
    doc.update(payload)
    return doc


def cmd_validate(ext, canonical):
    """``scrollex validate``: (payload, exit code), counted from the
    canonical document, which lists the facets.  It takes that document in
    place of the options it does not have.  Every other command's handler,
    ``cmd_<command>(ext, args)``, lives in the module named in ``_HANDLERS``."""
    payload = {
        "valid": True,
        "vertices": len(ext.skeleton_bar.vertices),
        "base_vertices": len(canonical["vertices"]),
        "facets": len(canonical["facets"]),
        "matrices": len(canonical["extensions"]),
    }
    return payload, 0


# The module of each handler but validate's, imported when its command runs.
_HANDLERS = dict(order="ordering", groebner="groebner", cycles="cycles", p2="bounds",
                 betti="homology", poligon="homology")


# Each command's positionals as (name, type) and options as flag -> (type,
# or the tuple of allowed values; default); a default of ... marks a
# required option.
_FILE = (("file", str),)
_COMMANDS = {
    "validate": (_FILE, {}),
    "order": (_FILE, {}),
    "groebner": (_FILE, {}),
    "cycles": (
        _FILE,
        {"--kind": (("minimal", "virtual"), "minimal"), "--cap": (int, DEFAULT_CYCLE_CAP)},
    ),
    "betti": (
        _FILE,
        {
            "--ideal": (("gamma", "initial"), "gamma"),
            "--field": (str, "q"),
            "--max-vertices": (int, 20),
        },
    ),
    "p2": (_FILE, {"--mode": (("lower", "upper", "exact", "auto"), "auto")}),
    "poligon": ((("n", int), ("s", int)), {}),
    "gen-chordal": ((), {"--seed": (int, ...), "--vertices": (int, 6)}),
    "gen-cycle-ext": ((), {"--seed": (int, ...), "--length": (int, None)}),
}


def _usage(prog, error=None):
    """Print help and exit 0, or a usage error (an input error) and exit 1."""
    if prog == "scrollex":
        usage = f"scrollex {{{','.join(_COMMANDS)}}} ..."
    else:  # the command's line of the synopsis above
        lines = map(str.split, __doc__.splitlines())
        usage = next(" ".join(words) for words in lines if words[:2] == prog.split())
    if error is None:
        _write(f"usage: {usage}\n\n{__doc__}", "")
        raise SystemExit(0)
    sys.stderr.write(f"usage: {usage}\n{prog}: error: {error}\n")
    raise SystemExit(1)


def _help(prog, value):
    """``-h``/``--help`` prints help, unless a value is attached to it."""
    if value is not None:
        _usage(prog, f"argument -h/--help: ignored explicit argument {value!r}")
    _usage(prog)


def _read(arg, flags, prog):
    """How argparse read ``arg``: None for a value, else (the flag it names in
    full or by a unique prefix, None if unknown; the value attached after "=",
    or None).  ``-h`` is ``--help``, and so are ``-hh`` and ``-h=h``;
    ``-<digits>``, ``-.5`` and anything with a space in it are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "h":
        extra = arg[2:].removeprefix("=").lstrip("h")
        return "--help", extra or ("" if arg == "-h=" else None)
    if arg[1] == "-":
        name, eq, value = arg.partition("=")
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            _usage(prog, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    else:
        whole, dot, frac = arg[1:].removesuffix("\n").partition(".")
        if whole.isdecimal() and not dot or (not whole or whole.isdecimal()) and frac.isdecimal():
            return None
    return None if " " in arg else (None, None)


def _convert(prog, name, value, kind):
    """``value`` as ``kind``: a type, or the tuple of the allowed values."""
    if not isinstance(kind, tuple):
        try:
            return kind(value)
        except ValueError:
            _usage(prog, f"argument {name}: invalid {kind.__name__} value: {value!r}")
    if value not in kind:
        choices = ", ".join(map(repr, kind))
        _usage(prog, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv):
    """The command and its fields, read from ``argv`` as argparse read them:
    ``--opt v`` or ``--opt=v``, under the full name or a unique prefix, the
    last repeat winning, and the first ``--`` ending the options.  Help exits
    0 and a usage error exits 1."""
    extras = []
    for i, arg in enumerate(argv):  # before the command only -h/--help is known
        read = None if arg == "--" else _read(arg, ("--help",), "scrollex")
        if read is None:
            break
        if read[0]:
            _help("scrollex", read[1])
        extras.append(arg)
    else:
        _usage("scrollex", "the following arguments are required: command")
    command, args = _convert("scrollex", "command", argv[i], tuple(_COMMANDS)), argv[i + 1 :]
    prog, (positionals, options) = f"scrollex {command}", _COMMANDS[command]
    # argparse reads every argument before it acts on any.  A "--" stands at
    # ``end`` even when argv has none, so an option there lacks its value.
    end = args.index("--") if "--" in args else len(args)
    reads = [_read(a, ("--help", *options), prog) for a in args[:end]]
    reads += ["--"] + [None] * len(args)
    fields, given, pending = {"command": command}, {}, list(positionals)
    k, taken = 0, -1  # taken: the index of the last value that filled a positional
    while k < len(args):
        arg, read = args[k], reads[k]
        k += 1
        if read == "--":  # argparse drops it only next to a value that fills a positional
            if taken != k - 2 and not (pending and k < len(args)):
                extras.append(arg)
        elif read is None and pending:
            name, kind = pending.pop(0)
            fields[name], taken = _convert(prog, name, arg, kind), k - 1
        elif read is None or read[0] is None:
            extras.append(arg)
        elif read[0] == "--help":
            _help(prog, read[1])
        else:
            flag, value = read
            if value is None:
                if reads[k] is not None:
                    _usage(prog, f"argument {flag}: expected one argument")
                value, k = args[k], k + 1
            given[flag] = _convert(prog, flag, value, options[flag][0])
    missing = [name for name, _ in pending]
    missing += [f for f, (_, default) in options.items() if default is ... and f not in given]
    if missing:
        _usage(prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage("scrollex", f"unrecognized arguments: {' '.join(extras)}")
    for flag, (_, default) in options.items():
        fields[flag[2:].replace("-", "_")] = given.get(flag, default)
    return fields


def main(argv=None):
    """Run one CLI call.  ``main(argv)`` returns its exit code.  ``main()`` is
    the process entry: it reads ``sys.argv`` and ends the process with the
    code through ``os._exit``, skipping the interpreter's teardown.  Either
    way the report, and help too, is flushed inside the error mapping, so a
    failed write exits 1 on one stderr line, and the unwritten rest of the
    report is dropped.  Help and usage errors raise ``SystemExit`` either way.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        command = args["command"]
        if command == "gen-chordal":
            from .fixtures import chordal_instance

            report, code = chordal_instance(args["seed"], args["vertices"]), 0
        elif command == "gen-cycle-ext":
            from .fixtures import random_cycle_extension_instance

            report, code = random_cycle_extension_instance(args["seed"], args["length"]), 0
        else:
            if command == "poligon":
                params = json.dumps({"n": args["n"], "s": args["s"]}, sort_keys=True)
                ext, digest = None, sha256(params.encode("utf-8")).hexdigest()
            else:
                ext, canonical = _load(args["file"])
                digest = instance_digest(canonical)
            if command == "validate":
                payload, code = cmd_validate(ext, canonical)
            else:
                module = importlib.import_module(f".{_HANDLERS[command]}", __package__)
                payload, code = getattr(module, f"cmd_{command}")(ext, args)
            report = _envelope(command, digest, payload)
        _emit(report)
    except CycleCapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        code = 3
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        code = 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        code = 1
    except Exception as e:
        message = " ".join(str(e).split())
        sys.stderr.write(f"error: internal error: {type(e).__name__}: {message}\n")
        code = 4
    if argv is not None:
        return code
    if sys.stderr is not None:  # None when the process started without fd 2
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
