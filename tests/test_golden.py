"""Byte identity of ``hypfield table`` and ``hypfield verify`` output and of
the genus-3 symbolic discriminant.

The digests below are SHA-256 hashes of the stdout of
``python -m hypfield.cli {table,verify} --genus g`` for g = 1..8, captured
before the exact ``Poly.__pow__`` and a one-pass ``Poly.substitute``
replaced the previous loops (``substitute`` is now the term-by-term
reference again, and the engine substitutes only while it sums), and of
``table --genus 32``, captured while every order key spanned one field per
symbol registered in the process (656 at g = 32), and of ``verify --genus``
16 and 32, captured while every residual was built as a polynomial in the
``la`` and ``w`` symbols and then substituted.  The ``table --format tree``
digests at g = 1, 2, 3, 4 and 8 were captured while that JSON was still
written line by line by hand, one ``json.dumps`` per key and per value,
before the standard library's streaming encoder took it over.  Any change
to the polynomial core must keep every byte of these outputs.

``SYMBOLIC_DISC_G3`` is the SHA-256 of ``str(symbolic_discriminant(
GenusContext(3))) + "\n"``, captured while the discriminant was still the
determinant of the Sylvester matrix of f and f'.

``RANK_G8`` is the SHA-256 of the stdout of ``python -m hypfield.cli rank
--genus 8 --samples 20 --seed 0``, captured while every Jacobian entry was
evaluated on its own in Fraction arithmetic.

``RANK_POINT_G8`` holds the SHA-256 of the stdout of ``python -m
hypfield.cli rank --genus 8 --point=...`` at a generic point (rank 16) and at
a point of deficient rank (9), captured while the rank came from the
symbolic Jacobian's 384 derivative polynomials: unlike the counts of
``RANK_G8``, they pin the printed parameter values.

``REDUCE`` holds the SHA-256 of the stdout of ``python -m hypfield.cli
reduce --genus g`` fed a fixed batch on stdin, captured while the print
order was a sorted list of ``(rank, -exponent, field)`` tuples per term and
the reducer still substituted the table into every atom.
The batches cover 4th powers, quotients by ``(atom + c)``, rational and
negative leading coefficients, ``la`` atoms and denominators made monic.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypfield
from hypfield.cli import EXIT_OK, main
from hypfield.curve import symbolic_discriminant
from hypfield.relations import GenusContext
from hypfield.variety import generator_symbols

GOLDEN = {
    ("table", 1): "0637df51c9ef2ef945c9daa5679538387a1b420f17cc701534d5cf2acd28a2d4",
    ("verify", 1): "160bc204ac6af3f770941ed2c54ecb115229beffa4f100ef190ce43db5fdb88f",
    ("table", 2): "4e4c032dac78f2e30f30cc19cd6f9876dfe5c4400e2c5c09c4597006314128c1",
    ("verify", 2): "8d4fd72d2da2e9e8786de88ac4415cefb0988e1fb807c02a7e0a2eaf7c53968c",
    ("table", 3): "e3709a9512c1d32f33c6b0b4cea1b9108b81aefe52af24ba60b23b7bd5f555a0",
    ("verify", 3): "f33ddde397d493a3c2f335ec349ce6d7c6203be84d1485e9e83cd574a9e9052d",
    ("table", 4): "d68e86cdb72f9ca9d4a13d0b6fbe8bf589cf5f8c27fa2f812dc07d0964a28d5d",
    ("verify", 4): "20598fe6d4021685f02c803d54bfbb243dec97c43dfd9fafdd34cd317dbd243e",
    ("table", 5): "3a1a2e00c7439bd88edf36c59f3e929459d5246c9ab753a60590a6908af34cf5",
    ("verify", 5): "0fa28cc61cce940b91220676aeadf2884a07115fd944a90d65099f4f01ca9195",
    ("table", 6): "db6cd4086a57aa560ea18a9ab9f48b1658ef04e8dcc717458b8a843983636b6d",
    ("verify", 6): "6044c166750b5c8cc311ad3c914327f91c79205073e1d5f4e37ae3834a48968f",
    ("table", 7): "a9d88a286dfa5524ee2aa793a8471fe01923d49ba50b9de4975626243d8c2835",
    ("verify", 7): "87137f2f720d500726f692523de84a3fe071a8ad1304ddc9324ced6847ae420f",
    ("table", 8): "b7dbd3ae637ee5c76d5a33799f9f372eb4a17b68a070d2d7e97e067e9597c2e1",
    ("verify", 8): "6ca3f3d1c703759dcebbc8d2d069b2c0a897acc7ebcec51277ac3215fbc10301",
    ("table", 32): "24ec0ef9e90acd7ffc71ba2fdc0fef8eb40f00dc1c5c868017366bb6ea374809",
    ("verify", 16): "7437d6f7ac6d88ca816a1a5bc7417f367c0e26e86da80ec3448aea398b5de2e4",
    ("verify", 32): "632e621a9d689d6d9b47b026a71d5b9465d0242af3f7f7e8985a4a97d34f5b4f",
    ("table --format tree", 1): "ced94bd14f46d71c87269a8e6ca320cd596ad084088d8abda96e2648a20ab012",
    ("table --format tree", 2): "811eb9ed8254f729416f3fcf815645e2bc9dd5853e548e4bb329dc493ceac082",
    ("table --format tree", 3): "9caada4cfdf82bf2ea3b64aa5bd0c660e0e40b7068f7f7d0e153ad417be941b0",
    ("table --format tree", 4): "c9a640ce629b50b431cd54cdaba2ee22d2126fd69243bccd812ec78f26e49bb8",
    ("table --format tree", 8): "60cbe3c5b9784d9209aa9d6ead39a6344d4d8abcf08be6d014f77407f9660c60",
}

SYMBOLIC_DISC_G3 = "7b24fb2f6b1387e9695bd04dbba589b2884f2a18bab5ca507864dabfba55b213"

RANK_G8 = "64110b20c9c1c82db90d9c594c94e9b9b2c1406fe7f5d9fafeff23ed09261607"

RANK_POINT_G8 = {
    "1/2,-3,0,2/3,5,-1/4,0,7,-2/5,3/2,1,-6,0,4/3,-5/7,2,9/4,-1,0,3,-8/3,1/5,6,-7/2":
        "8fa84ab03769e271959dac914c8842877a8bf45b184b30ab2252a11403a5ce7f",
    "1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0":
        "2ce81110722b72099edd0c8d09ed243937c5210626c16298d4b7b2337dde2528",
}

REDUCE = {
    3: (
        "p[1,1]^4\n"
        "p[3,3]^4 - p[1,3]^2*la8\n"
        "(p[1,1] + 2)^4\n"
        "(p[1,1,1] - 1/2*p[1,3])^4\n"
        "p[3,5] / (p[1,1] + 3)\n"
        "(2*p[1,3] - 1/3) / (p[1,1,1] - 5)\n"
        "-3/4*p[1,1,3] + la4*p[1,1]\n"
        "la6^2 / (3*la4 + 7)\n"
        "(p[1,1]^2 - p[1,1,1]) / (2*p[1,5] + 1/2)\n"
        "-p[1,1,1,1]^2 + 5/7*p[3,3]*la4\n"
        "1 / (-2/3*p[1,3] + 4)\n"
        "p[1,1] / (3*p[1,3] + 6)\n"
        "(p[1,1] + 1)^2 * (p[1,3] - 1) / (p[1,1] + 1)\n"
        "p[5,5] - p[3,5]\n"
        "la10 + la12 / (la8 - 2)\n"
        "-7/3*p[1,1,1,5]*p[1,1]^2 / (p[1,1,5] + 1)\n"
        "p[1,1]^2 * p[3,3] / (p[1,1]^3 * p[1,3])\n"
        "(la14 - p[1,1,1,3])^4 / (p[3,3] - 1/5)\n",
        "04e71eca6bf7059d50058110a6f3fdf41250a8ddc7604c534ed33d6d19f25bfc",
    ),
    2: (
        "p[1,1]^4 - p[1,3]\n"
        "(p[1,3] + 1)^4\n"
        "p[3,3] / (p[1,1] - 2)\n"
        "-5/6*p[1,1,3] / (4*p[1,1,1] + 1)\n"
        "la4 * la6 - 2/9*p[1,1,1,1]\n"
        "(la8 + p[3,3])^2 / (-3*la10 + 1/4)\n",
        "e2d14e2da20cc2fb49237ed261dc49867683913236f5e8233d862ae25f5d5c17",
    ),
}


@pytest.mark.parametrize("command,genus", sorted(GOLDEN, key=lambda k: (k[1], k[0])))
def test_output_digest(capsys, command, genus):
    code = main([*command.split(), "--genus", str(genus)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, genus]


def test_symbolic_discriminant_digest():
    text = str(symbolic_discriminant(GenusContext(3))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_DISC_G3


def test_rank_digest(capsys):
    code = main(["rank", "--genus", "8", "--samples", "20", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == RANK_G8


@pytest.mark.parametrize("point", list(RANK_POINT_G8), ids=["rank16", "rank9"])
def test_rank_point_digest(capsys, point):
    code = main(["rank", "--genus", "8", f"--point={point}"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == RANK_POINT_G8[point]


@pytest.mark.parametrize("genus", sorted(REDUCE))
def test_reduce_digest(capsys, monkeypatch, genus):
    batch, digest = REDUCE[genus]
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code = main(["reduce", "--genus", str(genus)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert len(out.splitlines()) == batch.count("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("genus", sorted(REDUCE))
def test_reduce_digest_without_substitute(capsys, monkeypatch, genus):
    # reduce reads every atom from the table: Poly.substitute is the tests'
    # reference and never on the reduce route
    def refuse(self, env):
        raise AssertionError("reduce called Poly.substitute")

    monkeypatch.setattr("hypfield.polyring.Poly.substitute", refuse)
    batch, digest = REDUCE[genus]
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code = main(["reduce", "--genus", str(genus)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REDUCE_REGISTRY_PROBE = """
import contextlib, hashlib, io, sys
from hypfield import polyring
from hypfield.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["reduce", "--genus", "3"]) == 0
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
print(" ".join(s.name for s in polyring._SYMS))
"""


def test_reduce_gives_only_the_generators_a_field():
    # a w atom is read from the table, never packed as a symbol of its own,
    # so a reduce process registers the 3g generators alone
    batch, digest = REDUCE[3]
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", REDUCE_REGISTRY_PROBE],
        input=batch, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got_digest, names = proc.stdout.split("\n", 1)
    assert got_digest == digest
    assert sorted(names.split()) == sorted(s.name for s in generator_symbols(3))
