from gridtopo.rng import coin

# (seed, label, coin) generated with the original stream-based implementation,
# which restarted a zero state from a fixed constant. The last two rows pick
# the seed whose mix cancels the label's hash, so the state is zero.
COIN_TABLE = [
    (0, "", True),
    (42, "", False),
    (0, "L1", True),
    (1, "L1", True),
    (42, "L1", True),
    (42, "L2", True),
    (42, "line-0007", True),
    (5, "L10", True),
    (-3, "L1", True),
    (7, "é", False),
    (7, "線路-12", True),
    (123456789, "ÿé\x00x", True),
    (99, "a" * 200, True),
    (3, "L2", False),
    (3, "L4", False),
    (3, "L7", True),
    (3, "L8", False),
    (2**32, "L1", True),
    (2**32 + 1, "B00_00", False),
    (2**40 + 2, "G02", True),
    (2**40 + 3, "G03", False),
    (2**64 + 5, "L9", True),
    (14298267643124055761, "", False),
    (18037678395966580662, "L1", False),
]


def test_coin_is_pinned():
    assert [(seed, label, coin(seed, label)) for seed, label, _ in COIN_TABLE] == COIN_TABLE
