"""DRAM-resident red-black tree — the KV store's data index (Figure 3).

Algorithm 1 ends with "RB-Tree.put(D, A)": the tree maps keys to NVM
locations.  It lives in DRAM, so it costs no NVM bit flips; a classic CLRS
implementation with insert, delete, point lookup, and ordered range scans.

A ``key -> node`` dict sits beside the tree: a point lookup, an
overwrite, a delete's search and ``len`` are dict operations, and only a
new key walks the tree to find its place.  The tree keeps what the dict
cannot, the key order of :meth:`RedBlackTree.range` and
:meth:`RedBlackTree.items`.  Deletion transplants nodes instead of
copying keys between them, so a dict entry stays valid for as long as
its key is in the tree.
"""

from __future__ import annotations

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key, value, color, nil) -> None:
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil


class RedBlackTree:
    """Ordered map over ``bytes`` keys (any hashable, totally ordered
    keys work)."""

    def __init__(self) -> None:
        self._nil = _Node(None, None, BLACK, None)
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._nodes: dict = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, key):
        """Value for ``key`` or ``None``."""
        node = self._nodes.get(key)
        return node.value if node is not None else None

    def put(self, key, value) -> None:
        """Insert ``key`` or overwrite its value."""
        node = self._nodes.get(key)
        if node is not None:
            node.value = value
            return
        parent = self._nil
        cursor = self._root
        while cursor is not self._nil:
            parent = cursor
            cursor = cursor.left if key < cursor.key else cursor.right
        node = _Node(key, value, RED, self._nil)
        node.parent = parent
        if parent is self._nil:
            self._root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node
        self._nodes[key] = node
        self._insert_fixup(node)

    def delete(self, key) -> bool:
        """Remove ``key``; returns whether it was present."""
        node = self._nodes.pop(key, None)
        if node is None:
            return False
        self._delete_node(node)
        return True

    def range(self, start_key, end_key):
        """Yield (key, value) pairs with start_key <= key <= end_key, sorted."""
        stack = []
        cursor = self._root
        while stack or cursor is not self._nil:
            while cursor is not self._nil:
                # Prune subtrees entirely below the range.
                if cursor.key < start_key:
                    cursor = cursor.right
                    continue
                stack.append(cursor)
                cursor = cursor.left
            if not stack:
                break
            node = stack.pop()
            if node.key > end_key:
                break
            yield node.key, node.value
            cursor = node.right

    def items(self):
        """Yield all (key, value) pairs in key order."""
        stack = []
        cursor = self._root
        while stack or cursor is not self._nil:
            while cursor is not self._nil:
                stack.append(cursor)
                cursor = cursor.left
            node = stack.pop()
            yield node.key, node.value
            cursor = node.right

    def keys(self):
        """Yield all keys in order."""
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------- internals

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color is RED:
            grand = z.parent.parent
            if z.parent is grand.left:
                uncle = grand.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = grand.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_node(self, z: _Node) -> None:
        y = z
        y_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color is BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color is BLACK:
            if x is x.parent.left:
                sibling = x.parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    sibling = x.parent.right
                if sibling.left.color is BLACK and sibling.right.color is BLACK:
                    sibling.color = RED
                    x = x.parent
                else:
                    if sibling.right.color is BLACK:
                        sibling.left.color = BLACK
                        sibling.color = RED
                        self._rotate_right(sibling)
                        sibling = x.parent.right
                    sibling.color = x.parent.color
                    x.parent.color = BLACK
                    sibling.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                sibling = x.parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    sibling = x.parent.left
                if sibling.right.color is BLACK and sibling.left.color is BLACK:
                    sibling.color = RED
                    x = x.parent
                else:
                    if sibling.left.color is BLACK:
                        sibling.right.color = BLACK
                        sibling.color = RED
                        self._rotate_left(sibling)
                        sibling = x.parent.left
                    sibling.color = x.parent.color
                    x.parent.color = BLACK
                    sibling.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK
