"""Red-black tree tests: CRUD, ordering, stateful model checking, and the
hash index beside the tree."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rbtree import BLACK, RED, RedBlackTree


def rb_invariants(tree: RedBlackTree) -> None:
    """Assert the classic red-black properties."""
    nil = tree._nil
    assert tree._root.color is BLACK

    def walk(node):
        if node is nil:
            return 1  # black height of a leaf
        if node.color is RED:
            assert node.left.color is BLACK and node.right.color is BLACK
        if node.left is not nil:
            assert node.left.key < node.key
        if node.right is not nil:
            assert node.right.key > node.key
        lh = walk(node.left)
        rh = walk(node.right)
        assert lh == rh, "black heights differ"
        return lh + (1 if node.color is BLACK else 0)

    walk(tree._root)


def index_matches_tree(tree: RedBlackTree) -> None:
    """Assert the ``key -> node`` dict holds exactly the tree's nodes, each
    under its own key."""
    nodes = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is not tree._nil:
            nodes.append(node)
            stack += [node.left, node.right]
    assert len(tree._nodes) == len(nodes)
    for node in nodes:
        assert tree._nodes[node.key] is node


class TestBasics:
    def test_empty(self):
        tree = RedBlackTree()
        assert len(tree) == 0
        assert tree.get(b"x") is None
        assert tree.delete(b"x") is False

    def test_put_get(self):
        tree = RedBlackTree()
        tree.put(b"b", 2)
        tree.put(b"a", 1)
        tree.put(b"c", 3)
        assert tree.get(b"a") == 1
        assert tree.get(b"b") == 2
        assert len(tree) == 3

    def test_overwrite(self):
        tree = RedBlackTree()
        tree.put(b"k", 1)
        tree.put(b"k", 2)
        assert tree.get(b"k") == 2
        assert len(tree) == 1

    def test_items_sorted(self):
        tree = RedBlackTree()
        for key in [b"d", b"a", b"c", b"b", b"e"]:
            tree.put(key, key)
        assert [k for k, _ in tree.items()] == [b"a", b"b", b"c", b"d", b"e"]

    def test_range_inclusive(self):
        tree = RedBlackTree()
        for i in range(10):
            tree.put(i, i)
        assert [k for k, _ in tree.range(3, 6)] == [3, 4, 5, 6]

    def test_range_prunes_correctly(self):
        tree = RedBlackTree()
        for i in range(100):
            tree.put(i, i)
        assert [k for k, _ in tree.range(90, 200)] == list(range(90, 100))
        assert [k for k, _ in tree.range(-5, 3)] == [0, 1, 2, 3]

    def test_delete_all_orders(self):
        for order in ([1, 2, 3], [3, 2, 1], [2, 1, 3]):
            tree = RedBlackTree()
            for i in order:
                tree.put(i, i)
            for i in order:
                assert tree.delete(i)
                rb_invariants(tree)
            assert len(tree) == 0


class TestInvariants:
    def test_invariants_under_sequential_inserts(self):
        tree = RedBlackTree()
        for i in range(200):
            tree.put(i, i)
            if i % 20 == 0:
                rb_invariants(tree)
        rb_invariants(tree)

    def test_invariants_under_random_mix(self):
        rng = np.random.default_rng(0)
        tree = RedBlackTree()
        model = {}
        for step in range(600):
            key = int(rng.integers(0, 60))
            if rng.random() < 0.6:
                tree.put(key, step)
                model[key] = step
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            if step % 50 == 0:
                rb_invariants(tree)
        assert sorted(model) == [k for k, _ in tree.items()]
        for key, value in model.items():
            assert tree.get(key) == value

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.booleans()),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence_property(self, ops):
        tree = RedBlackTree()
        model = {}
        for key, is_put in ops:
            if is_put:
                tree.put(key, key * 2)
                model[key] = key * 2
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        assert len(tree) == len(model)
        assert [k for k, _ in tree.items()] == sorted(model)
        rb_invariants(tree)


KEY_SPACE = range(-1, 32)  # every key the ops may touch, plus two never put


class TestHashIndex:
    """The dict beside the tree answers ``get``, overwrites, deletes and
    ``len``; it must never diverge from the tree it shadows."""

    @staticmethod
    def check(tree: RedBlackTree, model: dict) -> None:
        for key in KEY_SPACE:
            assert tree.get(key) == model.get(key)
        assert len(tree) == len(model)
        assert list(tree.items()) == sorted(model.items())
        assert list(tree.range(7, 23)) == sorted(
            (k, v) for k, v in model.items() if 7 <= k <= 23
        )
        rb_invariants(tree)
        index_matches_tree(tree)

    @given(
        st.lists(st.integers(0, 30), max_size=40),
        st.lists(
            st.tuples(st.integers(0, 30), st.booleans(), st.integers()),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_index_never_diverges_from_tree(self, preload, ops):
        # The preload grows a tree whose deletes hit inner nodes, two-child
        # ones included (the successor-transplant case).
        tree = RedBlackTree()
        model = {}
        for key in preload:
            tree.put(key, -key)
            model[key] = -key
        self.check(tree, model)
        for key, is_put, value in ops:
            if is_put:
                tree.put(key, value)  # an overwrite when key is present
                model[key] = value
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            self.check(tree, model)

    def test_two_child_delete_keeps_every_node_indexed(self):
        tree = RedBlackTree()
        model = {key: key * 3 for key in range(31)}
        for key, value in model.items():
            tree.put(key, value)
        while tree._root is not tree._nil:
            node = tree._root
            if len(model) >= 3:  # a red-black root over 3+ keys has two children
                assert node.left is not tree._nil and node.right is not tree._nil
            assert tree.delete(node.key)
            del model[node.key]
            self.check(tree, model)
