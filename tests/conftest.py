import pathlib
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from coalstab import Game

GAMES_DIR = pathlib.Path(__file__).parent.parent / "games"

# Fixed example order, no example database on disk, no per-example deadline:
# property tests replay the same cases on every run.
settings.register_profile("coalstab", derandomize=True, database=None, deadline=None)
settings.load_profile("coalstab")


def pytest_configure(config):
    # Hypothesis also caches parsed source constants on disk; keep them in a
    # directory removed when the test run ends, not in the checkout.
    home = tempfile.TemporaryDirectory(prefix="coalstab-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def game_a() -> Game:
    """Three players, singletons 0, pairs 5, grand 6: dominant grand value
    but an empty strong core."""
    return Game(3, {0b011: 5, 0b101: 5, 0b110: 5, 0b111: 6})


@pytest.fixture
def game_b() -> Game:
    """The unhappy-household game: players A=0, B=1, C=2 with v(B)=4,
    v(AC)=6, v(ABC)=8 and everything else 0."""
    return Game(3, {0b010: 4, 0b101: 6, 0b111: 8})


@pytest.fixture
def game_2() -> Game:
    """Two players, every value 1: empty strong core, naturally stable split."""
    return Game(2, {0b01: 1, 0b10: 1, 0b11: 1})


@pytest.fixture
def game_a_path() -> pathlib.Path:
    return GAMES_DIR / "gameA.json"


@pytest.fixture
def game_b_path() -> pathlib.Path:
    return GAMES_DIR / "gameB.json"


@pytest.fixture
def game_2_path() -> pathlib.Path:
    return GAMES_DIR / "game2.json"
