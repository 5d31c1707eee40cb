CREATE TABLE sales (id integer PRIMARY KEY, price float, region text);
