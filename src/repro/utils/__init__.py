"""Shared utilities: RNG handling, rendering (tables, ASCII art, plots),
image ops, docs hygiene."""

from repro.utils.ascii_art import ascii_image, side_by_side
from repro.utils.docs import (broken_intra_repo_links, iter_markdown_links,
                              markdown_files)
from repro.utils.plots import ascii_plot
from repro.utils.rng import (as_rng, rng_from_seed_sequence,
                             spawn_seed_sequences)
from repro.utils.tables import render_table
from repro.utils.imageops import (
    clip01,
    l1_distance,
    to_uint8,
    save_pgm,
    save_ppm,
)

__all__ = [
    "ascii_image",
    "side_by_side",
    "ascii_plot",
    "as_rng",
    "rng_from_seed_sequence",
    "spawn_seed_sequences",
    "broken_intra_repo_links",
    "iter_markdown_links",
    "markdown_files",
    "render_table",
    "clip01",
    "l1_distance",
    "to_uint8",
    "save_pgm",
    "save_ppm",
]
