"""Intrusive-list tests, including a hypothesis model check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.list import IntrusiveList, ListNode


class TestIntrusiveListBasics:
    def test_empty(self):
        lst = IntrusiveList()
        assert len(lst) == 0
        assert lst.empty
        assert lst.head() is None
        assert lst.tail() is None
        assert lst.pop_head() is None
        assert lst.pop_tail() is None

    def test_add_head_tail_order(self):
        lst = IntrusiveList()
        a, b, c = ListNode("a"), ListNode("b"), ListNode("c")
        lst.add_tail(a)
        lst.add_tail(b)
        lst.add_head(c)
        assert lst.items() == ["c", "a", "b"]

    def test_remove_middle(self):
        lst = IntrusiveList()
        nodes = [ListNode(i) for i in range(5)]
        for n in nodes:
            lst.add_tail(n)
        lst.remove(nodes[2])
        assert lst.items() == [0, 1, 3, 4]
        assert not nodes[2].linked

    def test_double_add_rejected(self):
        lst = IntrusiveList()
        n = ListNode(1)
        lst.add_tail(n)
        with pytest.raises(RuntimeError):
            lst.add_tail(n)

    def test_remove_foreign_node_rejected(self):
        a, b = IntrusiveList(), IntrusiveList()
        n = ListNode(1)
        a.add_tail(n)
        with pytest.raises(RuntimeError):
            b.remove(n)

    def test_move_to_tail_rotates(self):
        lst = IntrusiveList()
        nodes = [ListNode(i) for i in range(3)]
        for n in nodes:
            lst.add_tail(n)
        lst.move_to_tail(nodes[0])
        assert lst.items() == [1, 2, 0]

    def test_move_across_lists(self):
        a, b = IntrusiveList("a"), IntrusiveList("b")
        n = ListNode("x")
        a.add_tail(n)
        b.move_to_tail(n)
        assert a.empty
        assert b.items() == ["x"]
        assert n.owner is b

    def test_move_to_head(self):
        lst = IntrusiveList()
        nodes = [ListNode(i) for i in range(3)]
        for n in nodes:
            lst.add_tail(n)
        lst.move_to_head(nodes[2])
        assert lst.items() == [2, 0, 1]

    @pytest.mark.parametrize("front,expected", [
        (0, [0, 1, 2, 3, 4]),
        (2, [2, 3, 4, 0, 1]),
        (4, [4, 0, 1, 2, 3]),
    ], ids=["head", "middle", "tail"])
    def test_rotate_to_front(self, front, expected):
        lst = IntrusiveList()
        nodes = [ListNode(i) for i in range(5)]
        for n in nodes:
            lst.add_tail(n)
        lst.rotate_to_front(nodes[front])
        assert lst.items() == expected
        assert lst.head() is nodes[front]
        assert len(lst) == 5
        lst.check_consistency()
        # Adds still land at both ends of the rotated list.
        lst.add_head(ListNode("h"))
        lst.add_tail(ListNode("t"))
        assert lst.items() == ["h"] + expected + ["t"]
        lst.check_consistency()

    def test_rotate_to_front_single_element(self):
        lst = IntrusiveList()
        n = ListNode("x")
        lst.add_tail(n)
        lst.rotate_to_front(n)
        assert lst.items() == ["x"]
        assert lst.head() is n and lst.tail() is n
        lst.check_consistency()

    def test_rotate_to_front_foreign_node_rejected(self):
        a, b = IntrusiveList(), IntrusiveList()
        n = ListNode(1)
        a.add_tail(n)
        b.add_tail(ListNode(2))
        with pytest.raises(RuntimeError):
            b.rotate_to_front(n)
        assert a.items() == [1] and b.items() == [2]
        with pytest.raises(RuntimeError):
            b.rotate_to_front(ListNode(3))  # detached

    def test_pop_head_fifo(self):
        lst = IntrusiveList()
        for i in range(4):
            lst.add_tail(ListNode(i))
        assert [lst.pop_head().item for _ in range(4)] == [0, 1, 2, 3]

    def test_iteration_tolerates_current_removal(self):
        lst = IntrusiveList()
        nodes = [ListNode(i) for i in range(5)]
        for n in nodes:
            lst.add_tail(n)
        seen = []
        for node in lst.iter_from_head():
            seen.append(node.item)
            if node.item % 2 == 0:
                lst.remove(node)
        assert seen == [0, 1, 2, 3, 4]
        assert lst.items() == [1, 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["add_tail", "add_head", "pop_head", "pop_tail",
                     "rotate"]),
    st.integers(min_value=0, max_value=9)), max_size=60))
def test_list_matches_model(ops):
    """The intrusive list behaves like a plain Python list model."""
    lst = IntrusiveList()
    model = []
    nodes = {}
    counter = [0]
    for op, _arg in ops:
        if op == "add_tail":
            item = counter[0]
            counter[0] += 1
            node = ListNode(item)
            nodes[item] = node
            lst.add_tail(node)
            model.append(item)
        elif op == "add_head":
            item = counter[0]
            counter[0] += 1
            node = ListNode(item)
            nodes[item] = node
            lst.add_head(node)
            model.insert(0, item)
        elif op == "pop_head":
            node = lst.pop_head()
            if model:
                assert node.item == model.pop(0)
            else:
                assert node is None
        elif op == "pop_tail":
            node = lst.pop_tail()
            if model:
                assert node.item == model.pop()
            else:
                assert node is None
        elif op == "rotate" and model:
            item = model[0]
            lst.move_to_tail(nodes[item])
            model.append(model.pop(0))
        lst.check_consistency()
        assert lst.items() == model
        assert len(lst) == len(model)
